"""Tests for the recurrence solver, parametrization, and brute-force oracle."""

import itertools
import random
import struct

import pytest

from pgroebner import (
    TOP,
    EnumerationTooLarge,
    IterationLimitExceeded,
    MixedRings,
    Monomial,
    Poly,
    PolyVec,
    SequenceInput,
    ZeroVector,
    Zpr,
    brute_force_shortest,
    buchberger,
    build_module,
    enumerate_shortest,
    is_lrr,
    lrr,
    parse_poly,
    shortest_lrr,
)
from pgroebner.cli import main
from pgroebner.groebner import GroebnerBasis
from pgroebner.lrr import _add_params, _field_basis, _field_rows, _solution_count
from pgroebner.polyvec import _layout
from conftest import SEQ_Z5, SEQ_Z9A, SEQ_Z9B, Z4, Z5, Z8, Z9

# every slot width of the packed enumeration, with both edges 2m == 2^W
# (Z_128 in 8-bit and Z_32768 in 16-bit slots), Z_256 just past the 8-bit
# edge, Z_65521 in 32-bit and Z_3^30 in 64-bit slots
PACKED_RINGS = (Zpr(2, 1), Z4, Z8, Z9, Z5, Zpr(2, 7), Zpr(2, 8), Zpr(2, 15), Zpr(65521, 1),
                Zpr(3, 30))


def _packing(m, width):
    """(W, ones, K, struct) of width-slot vectors, stated apart from enumerate_shortest's."""
    W = next(w for w in (8, 16, 32, 64) if 2 * m <= 1 << w)
    ones = sum(1 << W * k for k in range(width))
    vec = struct.Struct(">" + {8: "B", 16: "H", 32: "I", 64: "Q"}[W] * width)
    return W, ones, ((1 << W - 1) - m) * ones, vec


def _is_lrr_reference(f, S):
    """The plain double loop over windows and terms that is_lrr replaces."""
    if f.is_zero():
        raise ZeroVector("the zero polynomial is not a recurrence")
    ring, vals = S.ring, S.values
    if not ring.is_unit(f.lead_coeff):
        return False
    L = f.degree
    for j in range(S.n - L):
        acc = 0
        for k in range(L + 1):
            acc += f.coeff(k) * vals[j + k]
        if acc % ring.modulus:
            return False
    return True


def _add_params_reference(stage, params, p, m, width):
    """The digit spans of enumerate_shortest summed on coefficient tuples."""
    for d, budget in params:
        single = len(stage) == 1
        span = stage if single else {(0,) * width}
        for s in range(budget + 1):
            copy = (0,) * s + d.coeffs + (0,) * (width - d.degree - 1 - s)
            span = {tuple([(a + t * c) % m for a, c in zip(f, copy)])
                    for f in span for t in range(p)}
        stage = span if single else {tuple([(a + b) % m for a, b in zip(f, g)])
                                     for f in stage for g in span}
    return stage


def _enumerate_reference(sol, monic_only, cap):
    """enumerate_shortest on coefficient tuples with _add_params_reference."""
    p, m, L = sol.ring.p, sol.ring.modulus, sol.length
    active = [(d, budget) for d, budget in sol.param_basis if not d.is_zero()]
    total = (p - 1) * p ** sum(budget + 1 for _, budget in active)
    if total > cap:
        raise EnumerationTooLarge(f"{total} parameter tuples exceed cap {cap}")
    top = [(d, budget) for d, budget in active if d.degree + budget == L]
    rest = [(d, budget) for d, budget in active if d.degree + budget < L]
    digits = (1,) if monic_only else range(1, p)
    stage = {tuple(q * c % m for c in sol.shortest.coeffs) for q in digits}
    stage = _add_params_reference(stage, top, p, m, L + 1)
    if monic_only:
        stage = {f for f in stage if f[L] == 1}
    stage = _add_params_reference(stage, rest, p, m, L + 1)
    return [Poly(sol.ring, f) for f in sorted(stage)]


def S5():
    return SequenceInput(Z5, SEQ_Z5)


def S9A():
    return SequenceInput(Z9, SEQ_Z9A)


def S9B():
    return SequenceInput(Z9, SEQ_Z9B)


class TestIsLrr:
    def test_known_recurrences(self):
        assert is_lrr(parse_poly(Z5, "x^2+2x+4"), S5())
        assert is_lrr(parse_poly(Z9, "x^3+4x^2+7x+1"), S9B())

    def test_degree_n_is_vacuous(self):
        for S in (S5(), S9A(), S9B()):
            assert is_lrr(Poly.monomial(S.ring, 1, S.n), S)

    def test_nonunit_leading_coefficient_rejected(self):
        assert not is_lrr(parse_poly(Z9, "3x^2+1"), S9A())

    def test_wrong_polynomial_rejected(self):
        assert not is_lrr(parse_poly(Z5, "x^2+1"), S5())

    def test_mixed_rings_raise(self):
        # a Z_4 polynomial against a Z_9 sequence is an error, not a False
        with pytest.raises(MixedRings):
            is_lrr(Poly(Z4, (3, 1)), SequenceInput(Z9, (1, 8, 1)))

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroVector):
            is_lrr(Poly.zero(Z5), S5())

    def test_unit_constant_only_for_zero_sequence(self):
        one = Poly.constant(Z9, 1)
        assert is_lrr(one, SequenceInput(Z9, (0, 0, 0)))
        assert not is_lrr(one, SequenceInput(Z9, (0, 3, 0)))

    def test_agrees_with_double_loop(self):
        rng = random.Random(1729)
        found = 0
        for ring in (Z4, Z5, Z8, Z9, Zpr(2, 8), Zpr(65521, 1)):
            m = ring.modulus
            for _ in range(40):
                S = SequenceInput(ring, tuple(rng.randrange(m) for _ in range(rng.randrange(1, 9))))
                sol = shortest_lrr(S)
                # random polynomials, the zero one included, the params (non-unit
                # leading coefficients) and the recurrences themselves
                candidates = [Poly(ring, [rng.randrange(m) for _ in range(rng.randrange(0, 6))]),
                              *(d for d, _ in sol.param_basis)]
                try:
                    candidates += enumerate_shortest(sol, monic_only=False, cap=10**4)
                except EnumerationTooLarge:
                    candidates.append(sol.shortest)
                for f in candidates:
                    if f.is_zero():
                        with pytest.raises(ZeroVector):
                            is_lrr(f, S)
                        with pytest.raises(ZeroVector):
                            _is_lrr_reference(f, S)
                        continue
                    assert is_lrr(f, S) == _is_lrr_reference(f, S), (S.values, str(f))
                    found += is_lrr(f, S)
        assert found > 100


class TestSequenceInput:
    @pytest.mark.parametrize("ring", [Zpr(3, 1), Zpr(3, 2)], ids=["field", "chain-ring"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None], ids=["float", "integral-float", "str", "none"])
    def test_non_integer_values_raise_type_error(self, ring, bad):
        for values in ((1, bad), (bad, 1, 2)):
            with pytest.raises(TypeError, match="^sequence values must be ints$"):
                SequenceInput(ring, values)

    @pytest.mark.parametrize("ring", [Zpr(3, 1), Zpr(3, 2)], ids=["field", "chain-ring"])
    def test_integer_values_are_reduced(self, ring):
        S = SequenceInput(ring, (1, -1, ring.modulus + 2))
        assert S.values == (1, ring.modulus - 1, 2)
        assert shortest_lrr(S).sequence == S.values


class TestBuildModule:
    def test_z5_generators(self):
        s1, s2 = build_module(S5())
        assert str(s1) == "[1, 4x^5+x^4+2x^3+2x^2+3x]"
        assert str(s2) == "[0, x^6]"

    def test_z9_generators(self):
        s1, s2 = build_module(S9A())
        assert str(s1) == "[1, 8x^5+5x^4+5x^3+2x^2+2x]"
        assert str(s2) == "[0, x^6]"

    def test_zero_sequence(self):
        s1, s2 = build_module(SequenceInput(Z9, (0, 0, 0)))
        assert str(s1) == "[1, 0]"
        assert str(s2) == "[0, x^4]"


class TestShortestLrr:
    def test_z5(self):
        sol = shortest_lrr(S5())
        assert str(sol.shortest) == "x^2+2x+4"
        assert sol.length == 2

    def test_z9a(self):
        sol = shortest_lrr(S9A())
        assert str(sol.shortest) == "x^2+3x+2"
        assert sol.length == 2

    def test_z9b(self):
        sol = shortest_lrr(S9B())
        assert str(sol.shortest) == "x^3+4x^2+7x+4"
        assert sol.length == 3

    def test_companion_pairs_with_shortest(self):
        # [shortest, -companion] must lie in the interpolation module
        from pgroebner import TOP, normal_form, PolyVec, buchberger

        for S in (S5(), S9A(), S9B()):
            sol = shortest_lrr(S)
            G = buchberger(list(build_module(S)), TOP)
            f = PolyVec.from_components(S.ring, [sol.shortest, -sol.companion])
            assert normal_form(f, list(G.elements), TOP).is_zero()
            assert sol.companion.degree <= sol.shortest.degree

    def test_zero_sequence_has_length_zero(self):
        sol = shortest_lrr(SequenceInput(Z9, (0, 0, 0, 0)))
        assert sol.length == 0
        assert str(sol.shortest) == "1"


class TestEnumerateShortest:
    def test_z9a_monic_set(self):
        sol = shortest_lrr(S9A())
        got = {str(f) for f in enumerate_shortest(sol)}
        assert got == {"x^2+3x+2", "x^2+6x+8", "x^2+5"}

    def test_z9a_matches_digit_expansion_of_template(self):
        # expand q*(x^2+3x+2) + c*(3x+6) over digits by hand and compare
        base = parse_poly(Z9, "x^2+3x+2")
        step = parse_poly(Z9, "3x+6")
        expected = {base + step.scale(t) for t in range(3)}
        sol = shortest_lrr(S9A())
        assert set(enumerate_shortest(sol)) == expected

    def test_z9b_contains_known_alternative(self):
        sol = shortest_lrr(S9B())
        got = {str(f) for f in enumerate_shortest(sol)}
        assert "x^3+4x^2+7x+1" in got
        assert len(got) == 9

    def test_z5_unique(self):
        sol = shortest_lrr(S5())
        assert [str(f) for f in enumerate_shortest(sol)] == ["x^2+2x+4"]

    def test_all_mode_contains_unit_multiples(self):
        sol = shortest_lrr(S5())
        everything = enumerate_shortest(sol, monic_only=False)
        assert {str(f) for f in everything} == {
            str(parse_poly(Z5, "x^2+2x+4").scale(u)) for u in range(1, 5)
        }

    def test_enumeration_cap(self):
        sol = shortest_lrr(S9A())
        with pytest.raises(EnumerationTooLarge):
            enumerate_shortest(sol, cap=1)
        # the cap counts parameter tuples, (p-1)*p^slots = 2*3^2 here, not the
        # smaller set left after the monic filter
        assert sol.param_basis == ((parse_poly(Z9, "3x+6"), 1),)
        assert len(enumerate_shortest(sol, cap=2 * 3**2)) == 3
        with pytest.raises(EnumerationTooLarge):
            enumerate_shortest(sol, cap=2 * 3**2 - 1)
        # at large p monic mode visits only the pivot digit 1, but the cap
        # still counts all p-1 = 65520 pivot digits
        big = shortest_lrr(SequenceInput(Zpr(65521, 1), (1, 2, 3, 5, 8, 13, 21)))
        assert big.param_basis == ()
        assert enumerate_shortest(big, cap=65520) == [big.shortest]
        with pytest.raises(EnumerationTooLarge):
            enumerate_shortest(big, cap=65519)

    def test_all_mode_is_unit_multiples_of_oracle(self):
        rng = random.Random(2009)
        Z27 = Zpr(3, 3)
        cases = [S9A()] + [
            SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))
            for ring, top_n in ((Z4, 4), (Z8, 4), (Z9, 4), (Z27, 3))
            for n in [rng.randrange(1, top_n + 1) for _ in range(12)]
        ]
        reaches_top = False
        for S in cases:
            sol = shortest_lrr(S)
            L, oracle = brute_force_shortest(S)
            units = [u for u in range(1, S.ring.modulus) if u % S.ring.p]
            expected = {f.scale(u) for f in oracle for u in units}
            got = enumerate_shortest(sol, monic_only=False)
            assert L == sol.length, S.values
            assert got == sorted(expected, key=lambda f: f.coeffs), S.values
            reaches_top |= any(
                not d.is_zero() and d.degree + budget == L for d, budget in sol.param_basis
            )
        # a parameter whose top copy x^budget*d has a nonzero x^L coefficient
        # (3x+6 with budget 1 on 1,4,4,7,7) must be added before the monic filter
        assert reaches_top

    def test_monic_mode_is_monic_part_of_all_mode_at_large_p(self):
        # monic mode starts from the pivot digit 1 alone; the --all mode,
        # which enumerates every pivot digit, is the slow reference
        rng = random.Random(4602)
        cap = 10**5
        cases = [
            SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))
            for ring, top_n in (
                (Zpr(5, 2), 6), (Zpr(3, 3), 6), (Zpr(7, 2), 6), (Zpr(5, 3), 6), (Zpr(65521, 1), 8)
            )
            for n in [rng.randrange(1, top_n + 1) for _ in range(8)]
        ]
        compared, oracle_checked, reaches_top = set(), 0, False
        for S in cases:
            sol = shortest_lrr(S)
            try:
                everything = enumerate_shortest(sol, monic_only=False, cap=cap)
            except EnumerationTooLarge:
                with pytest.raises(EnumerationTooLarge):
                    enumerate_shortest(sol, cap=cap)
                continue
            got = enumerate_shortest(sol, cap=cap)
            assert got == [f for f in everything if f.is_monic()], S.values
            assert all(is_lrr(f, S) for f in got), S.values
            compared.add(S.ring)
            if S.ring.modulus == 25 and S.n <= 3:
                L, oracle = brute_force_shortest(S)
                assert L == sol.length, S.values
                assert got == sorted(oracle, key=lambda f: f.coeffs), S.values
                oracle_checked += 1
            reaches_top |= S.ring.p > 2 and any(
                not d.is_zero() and d.degree + budget == sol.length
                for d, budget in sol.param_basis
            )
        assert compared == {S.ring for S in cases}
        assert oracle_checked >= 2
        # a top parameter makes f_L = 1 + (multiple of p) on the pivot-1 stage,
        # so the monic filter must run after it is added
        assert reaches_top

    def test_results_are_canonical_polynomials(self):
        # the returned polynomials keep the enumeration's tuples as they are,
        # without the public constructor's reduction and stripping
        rng = random.Random(5150)
        for ring in (Zpr(2, 1), Z4, Z8, Z9, Zpr(3, 2), Zpr(2, 8)):
            for _ in range(10):
                n = rng.randrange(1, 9)
                S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))
                sol = shortest_lrr(S)
                for monic_only in (True, False):
                    try:
                        got = enumerate_shortest(sol, monic_only=monic_only, cap=10**4)
                    except EnumerationTooLarge:
                        continue
                    for f in got:
                        assert type(f.coeffs) is tuple, S.values
                        assert f.coeffs == Poly(ring, f.coeffs).coeffs, S.values

    def test_digit_spans_against_explicit_sums(self):
        # a one-vector stage seeds the span; a larger stage gets the span added
        # afterwards.  Both must give every f + sum theta_s x^s d_i.
        rng = random.Random(3141)
        width = 6

        def explicit(stage, params, p, m):
            choices = [(d, s) for d, budget in params for s in range(budget + 1)]
            out = set()
            for f in stage:
                for thetas in itertools.product(range(p), repeat=len(choices)):
                    g = list(f)
                    for t, (d, s) in zip(thetas, choices):
                        for k, c in enumerate(d.coeffs):
                            g[k + s] = (g[k + s] + t * c) % m
                    out.add(tuple(g))
            return out

        for ring in PACKED_RINGS:
            p, m = ring.p, ring.modulus
            packing = _packing(m, width)
            vec = packing[3]
            # Z_65521 spans one digit choice: 65521 sums per stage vector
            for _ in range(6 if p < 100 else 1):
                params = []
                for _ in range(rng.randrange(1, 3) if p < 100 else 1):
                    d = Poly(ring, [rng.randrange(m) for _ in range(rng.randrange(1, 4))])
                    if not d.is_zero():
                        top = (3 if p < 5 else 2) if p < 100 else 1
                        params.append((d, rng.randrange(min(width - d.degree, top))))
                one = {tuple(rng.randrange(m) for _ in range(width))}
                two = one | {tuple(rng.randrange(m) for _ in range(width))}
                # slots at the top residue m - 1 meet their carry edge
                edge = {(m - 1,) * width, tuple(rng.choice((0, 1, m - 1)) for _ in range(width))}
                slots = sum(budget + 1 for _, budget in params)
                for stage in (one, two, edge):
                    packed = [int.from_bytes(vec.pack(*f), "big") for f in stage]
                    sums = _add_params(packed, params, p, m, packing)
                    # one sum per stage vector and digit choice, repeats kept
                    assert len(sums) == len(stage) * p**slots, (ring, params)
                    got = {vec.unpack(f.to_bytes(vec.size, "big")) for f in sums}
                    assert got == explicit(stage, params, p, m), (ring, params)
                    assert got == _add_params_reference(set(stage), params, p, m, width)

    def test_packed_enumeration_equals_tuple_reference(self):
        # over Z_3^30 every solution has at least r - 1 = 29 digit slots, so
        # both sides refuse it; the spans test above covers its 64-bit slots
        rng = random.Random(1301)
        compared = set()
        for ring in PACKED_RINGS:
            m = ring.modulus
            cap = 1 << 14 if ring.p < 100 else 65520
            for _ in range(12 if ring.p < 100 else 3):
                n = rng.randrange(1, 9 if ring.r < 10 else 5)
                values = [rng.choice((0, 1, m - 1, rng.randrange(m))) for _ in range(n)]
                sol = shortest_lrr(SequenceInput(ring, tuple(values)))
                for monic_only in (True, False):
                    try:
                        want = _enumerate_reference(sol, monic_only, cap)
                    except EnumerationTooLarge:
                        with pytest.raises(EnumerationTooLarge):
                            enumerate_shortest(sol, monic_only=monic_only, cap=cap)
                        continue
                    got = enumerate_shortest(sol, monic_only=monic_only, cap=cap)
                    assert got == want, (ring, values, monic_only)
                    assert [f.coeffs for f in got] == [f.coeffs for f in want]
                    compared.add((ring, monic_only, len(got) > 1))
        assert {(ring, mode) for ring, mode, _ in compared} == {
            (ring, mode) for ring in PACKED_RINGS[:-1] for mode in (True, False)}
        assert sum(many for _, _, many in compared) >= 12

    def test_counts_equal_the_closed_form(self):
        # distinct digit tuples give distinct recurrences, so without any
        # deduplication the lists hold exactly the counts of _solution_count
        rng = random.Random(4096)
        rings = (Zpr(2, 1), Z4, Z8, Zpr(2, 4), Zpr(3, 1), Z9, Zpr(3, 3), Zpr(5, 2), Zpr(7, 2))
        cap, compared, drawn, many = 4096, 0, 0, 0
        while compared < 2000:
            ring = rings[drawn % len(rings)]
            drawn += 1
            p, m = ring.p, ring.modulus
            # about 40% of the sequences are built from multiples of p
            step = p if rng.random() < 0.4 else 1
            values = tuple(step * rng.randrange(m // step) for _ in range(rng.randrange(1, 9)))
            sol = shortest_lrr(SequenceInput(ring, values))
            counts = [_solution_count(ring, sol.param_basis, mode) for mode in (True, False)]
            if counts[1] > cap:
                with pytest.raises(EnumerationTooLarge):
                    enumerate_shortest(sol, cap=cap)
                continue
            for monic_only, count in zip((True, False), counts):
                got = enumerate_shortest(sol, monic_only=monic_only, cap=cap)
                assert len(got) == count, (ring, values, monic_only)
            compared += 1
            many += counts[0] > 1
        assert drawn < 2400 and many > 500

    def test_soundness_on_random_sequences(self):
        rng = random.Random(77)
        for ring in (Z4, Z9, Z5, Z8):
            for _ in range(15):
                n = rng.randrange(1, 6)
                S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))
                sol = shortest_lrr(S)
                for f in enumerate_shortest(sol):
                    assert is_lrr(f, S), (S.values, str(f))


class TestBruteForce:
    def test_z9a(self):
        L, sols = brute_force_shortest(S9A())
        assert L == 2
        assert {str(f) for f in sols} == {"x^2+3x+2", "x^2+6x+8", "x^2+5"}

    def test_z5(self):
        L, sols = brute_force_shortest(S5())
        assert L == 2
        assert [str(f) for f in sols] == ["x^2+2x+4"]

    def test_zero_sequence(self):
        L, sols = brute_force_shortest(SequenceInput(Z9, (0, 0, 0)))
        assert L == 0
        assert [str(f) for f in sols] == ["1"]

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            brute_force_shortest(S9A(), cap=10)

    def test_max_deg_below_true_length(self):
        L, sols = brute_force_shortest(S9A(), max_deg=1)
        assert L is None and sols == []


class TestOracleEquivalence:
    def test_exhaustive_short_sequences(self):
        # thin slice over every modulus <= 9; the full grid runs in the
        # acceptance suite
        from pgroebner import Zpr

        small = [Zpr(2, 1), Zpr(3, 1), Zpr(2, 2), Zpr(5, 1), Zpr(7, 1), Zpr(2, 3), Zpr(3, 2)]
        for ring in small:
            for n in (1, 2, 3):
                for seq in itertools.product(range(ring.modulus), repeat=n):
                    S = SequenceInput(ring, seq)
                    sol = shortest_lrr(S)
                    L, sols = brute_force_shortest(S)
                    assert L == sol.length, (ring, seq)
                    assert set(sols) == set(enumerate_shortest(sol)), (ring, seq)

    def test_non_uniqueness_below_half_length(self):
        # over Z_9 the 1,4,4,7,7 instance has 3 monic solutions of length 2 < (n+1)/2
        sol = shortest_lrr(S9A())
        assert sol.length < (S9A().n + 1) / 2
        assert len(enumerate_shortest(sol)) == 3


def _reference_basis(S):
    """The completion of the interpolation module: the r = 1 reference of `_field_basis`."""
    return buchberger(list(build_module(S)), TOP)


def _field_sequences():
    """Seeded sequences over fields up to n = 600, random and with long zero runs.

    n = 600 takes the residuals past 512 slots, the fold's masks past one
    block of a q = 2 vector, and a zero run of 540 or more an element past
    two blocks of 256 degrees.
    """
    rng = random.Random(1995)
    out = []
    for ring in (Zpr(2, 1), Zpr(3, 1), Zpr(7, 1), Zpr(65521, 1)):
        p = ring.p
        for n in (*range(1, 25), 33, 64, 127, 255, 256, 257, 511, 512, 513, 600):
            out.append(SequenceInput(ring, tuple(rng.randrange(p) for _ in range(n))))
        for zeros in (599, 540, 300, 1):
            tail = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(599 - zeros)]
            out.append(SequenceInput(ring, (0,) * zeros + tuple(tail)))
        out.append(SequenceInput(ring, (0,) * 600))
    return out


def _zero_run_sequences():
    """Short tails after zero runs that end at and around the 64-degree chunks of the
    windowed field finish and the blocks, so that a's lead lies far above b's."""
    rng = random.Random(1996)
    return [SequenceInput(ring, (0,) * zeros + (rng.randrange(1, ring.p),)
                          + tuple(rng.randrange(ring.p) for _ in range(n - 1)))
            for ring in (Zpr(2, 1), Zpr(3, 1), Zpr(7, 1), Zpr(65521, 1))
            for zeros in (63, 64, 65, 127, 128, 129, 255, 256, 257, 1100) for n in (1, 2, 5, 30, 65)]


def _raw_rows(S):
    """The rows a > b of `_field_rows` as vectors."""
    lay, zero = _layout(S.ring, 2), PolyVec.zero(S.ring, 2)
    return [zero._like(lay.blocks(x)) for x in _field_rows(S)]


def _generic_finish(S):
    """`GroebnerBasis.from_elements` of the raw rows: normalize, sort and cancel unit tails."""
    return GroebnerBasis.from_elements(_raw_rows(S), TOP)


def _tail_cancellations(S):
    """The number of steps that cancel, top down, the terms of the raw a covered by lm(b)."""
    a, b = _raw_rows(S)
    _, (deg, pos), _ = b.lead(TOP)
    steps = 0
    while covered := [alpha for alpha, at in a.terms if at == pos and alpha >= deg]:
        top = max(covered)
        a = a.sub_term_mul(b, a.coeff(Monomial(top, pos)), top - deg)
        steps += 1
    return steps


class TestFieldFinish:
    """The rows are finished as ints; `GroebnerBasis.from_elements` of the raw rows stays the reference."""

    @staticmethod
    def _assert_finish(S):
        got = _field_basis(S)
        assert got.elements == _generic_finish(S).elements, (S.ring, S.values)
        for g in got:
            assert g._cache == (TOP, g._scan(TOP))

    @pytest.mark.parametrize("p, top_n", [(2, 10), (3, 6), (5, 4)])
    def test_equals_the_generic_finish_exhaustively(self, p, top_n):
        ring = Zpr(p, 1)
        for n in range(1, top_n + 1):
            for values in itertools.product(range(p), repeat=n):
                self._assert_finish(SequenceInput(ring, values))

    def test_raw_rows_have_lc_one_and_distinct_positions(self):
        # nothing is left to normalize: a row only gets the other, smaller one added or is shifted
        rng = random.Random(26)
        for ring in (Zpr(7, 1), Zpr(65521, 1)):
            for n in (*range(1, 40), 100, 257):
                S = SequenceInput(ring, tuple(rng.randrange(ring.p) for _ in range(n)))
                a, b = _raw_rows(S)
                assert a.lc(TOP) == b.lc(TOP) == 1
                assert {a.lpos(TOP), b.lpos(TOP)} == {1, 2}
                assert TOP.compare(a.lm(TOP), b.lm(TOP)) > 0
                self._assert_finish(S)

    def test_equals_the_generic_finish_on_seeded_sequences(self):
        sequences = _field_sequences()
        for S in sequences:
            self._assert_finish(S)
        steps = [_tail_cancellations(S) for S in sequences]
        assert max(steps) >= 2 and steps.count(1) > 10
        # a's lead three chunks or more above b's: the windowed finish moves its window
        zero_runs = _zero_run_sequences()
        for S in zero_runs:
            self._assert_finish(S)
        leads = [[g.deg(TOP) for g in _raw_rows(S)] for S in zero_runs]
        assert sum(a >= 3 * max(b + 1, 64) for a, b in leads) >= 70
        # a row spans three blocks of 256 degrees, and its tail needs hundreds of steps
        assert max(len(g._blocks) for S in sequences for g in _field_basis(S)) == 3
        assert max(steps) > 256

    @pytest.mark.parametrize("p, values, steps", [
        (2, (1, 1, 1), 2), (7, (1, 1, 1), 2), (65521, (1, 1, 1), 2), (7, (4,) * 7, 6), (65521, (4,) * 7, 6)])
    def test_several_tail_cancellations(self, p, values, steps):
        S = SequenceInput(Zpr(p, 1), values)
        assert _tail_cancellations(S) == steps
        self._assert_finish(S)


class TestFieldBasis:
    """Over a field the basis is built term by term; `buchberger` stays its reference."""

    @pytest.mark.parametrize("p, top_n", [(2, 10), (3, 6), (5, 4)])
    def test_equals_completion_exhaustively(self, p, top_n):
        ring = Zpr(p, 1)
        for n in range(1, top_n + 1):
            for values in itertools.product(range(p), repeat=n):
                S = SequenceInput(ring, values)
                assert _field_basis(S).elements == _reference_basis(S).elements, values

    def test_equals_completion_on_seeded_sequences(self):
        sequences = _field_sequences()
        for S in sequences + _zero_run_sequences():
            assert _field_basis(S).elements == _reference_basis(S).elements, (S.ring, S.values)
        # the lead degrees reach the third block of 256 degrees
        assert max(g.deg(TOP) for S in sequences for g in _field_basis(S)) > 512

    @pytest.mark.parametrize("flags", [["--structured"], ["--all", "--structured"]], ids=["monic", "all"])
    def test_documents_equal_the_completions(self, capsys, monkeypatch, flags):
        sequences = [S for S in _field_sequences() if S.n in (1, 2, 7, 16, 33, 64)]
        assert len(sequences) >= 20

        def documents():
            out = []
            for S in sequences:
                argv = ["lrr", "--ring", str(S.ring.modulus), "--seq", ",".join(map(str, S.values))]
                code = main(argv + flags + ["--max-enum", "5000"])
                out.append((code, capsys.readouterr().out))
            return out

        fast = documents()
        monkeypatch.setattr(lrr, "_field_basis", _reference_basis)
        assert documents() == fast
        assert {code for code, _ in fast} == {0, 4}  # enumerated, and over the cap

    def test_only_chain_rings_complete(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("buchberger called")

        sequences = [SequenceInput(ring, (1, 2, 3, 5, 8, 13)) for ring in (Zpr(2, 1), Z5, Zpr(65521, 1))]
        want = [shortest_lrr(S) for S in sequences]
        monkeypatch.setattr(lrr, "buchberger", refuse)
        assert [shortest_lrr(S) for S in sequences] == want
        with pytest.raises(AssertionError, match="buchberger called"):
            shortest_lrr(S9A())

    def test_step_cap_is_one_step_per_term_and_refuses_first(self, monkeypatch):
        S = SequenceInput(Zpr(2, 1), (1, 0, 1, 1, 0))
        shortest_lrr(S, max_steps=6)

        def refuse(S):
            raise AssertionError("work before the cap")

        monkeypatch.setattr(lrr, "_field_basis", refuse)
        with pytest.raises(IterationLimitExceeded, match="6 steps exceed 5"):
            shortest_lrr(S, max_steps=5)
        with pytest.raises(IterationLimitExceeded):
            shortest_lrr(S, max_steps=0)

    @pytest.mark.parametrize("ring", ["2", "65521"])
    def test_cli_step_cap_exit_code(self, capsys, ring):
        argv = ["lrr", "--ring", ring, "--seq", "1,1,2,3,5,8", "--max-steps"]
        assert main(argv + ["6"]) == 3
        assert "7 steps exceed 6" in capsys.readouterr().err
        assert main(argv + ["7"]) == 0
