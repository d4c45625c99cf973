"""Tests for reduction, completion, minimalization, and the PLM check."""

import random

import pytest

from pgroebner import (
    POT,
    TOP,
    GroebnerBasis,
    Monomial,
    NotReducible,
    RingNotField,
    SequenceInput,
    ValidationFailed,
    ZeroVector,
    buchberger,
    build_module,
    check_plm,
    is_groebner,
    minimalize,
    module_equal,
    normal_form,
    reduce_step,
)
from pgroebner.reports import render_gb_doc
from conftest import (
    GB_Z5_TOP,
    GB_Z9A_TOP,
    GB_Z9B_TOP,
    SEQ_Z5,
    SEQ_Z9A,
    SEQ_Z9B,
    Z5,
    Z9,
    rows,
    vec,
)


def z5_generators():
    return list(build_module(SequenceInput(Z5, SEQ_Z5)))


def z9a_generators():
    return list(build_module(SequenceInput(Z9, SEQ_Z9A)))


def z9b_generators():
    return list(build_module(SequenceInput(Z9, SEQ_Z9B)))


class TestReduceStep:
    def test_reduces_below_leading_monomial(self):
        F = rows(Z5, GB_Z5_TOP)
        f = vec(Z5, "[0, x^6]")
        h = reduce_step(f, F, TOP)
        assert h.is_zero() or TOP.compare(h.lm(TOP), Monomial(6, 2)) < 0

    def test_not_reducible_when_no_divisor_matches(self):
        F = [vec(Z9, "[0, x^3]")]
        with pytest.raises(NotReducible):
            reduce_step(vec(Z9, "[x^5, 0]"), F, TOP)

    def test_zero_divisor_leading_term_cancellation(self):
        # 3 * first known row reduced once by the second known row
        f = vec(Z9, "[8, x^5+4x^4+4x^3+7x^2+7x]").scale(3)
        g2 = vec(Z9, "[x+5, 3x^4+3x^2+x]")
        h = reduce_step(f, [g2], TOP)
        assert h == vec(Z9, "[8x^2+4x+6, 3x^4+2x^2+3x]")

    def test_order_gap_blocks_cancellation(self):
        # unit leading coefficient cannot be cancelled by a zero-divisor one
        f = vec(Z9, "[x^2, 0]")
        with pytest.raises(NotReducible):
            reduce_step(f, [vec(Z9, "[3x, 0]")], TOP)

    def test_strict_descent_along_normal_form(self):
        rng = random.Random(11)
        F = rows(Z9, GB_Z9A_TOP)
        for _ in range(100):
            f = _random_combination(rng, F)
            while not f.is_zero():
                before = f.lm(TOP)
                try:
                    f = reduce_step(f, F, TOP)
                except NotReducible:
                    break
                assert f.is_zero() or TOP.compare(f.lm(TOP), before) < 0


def _random_combination(rng, F):
    from pgroebner import Poly, PolyVec

    out = PolyVec.zero(F[0].ring, F[0].q)
    for g in F:
        coeff = Poly(F[0].ring, [rng.randrange(9) for _ in range(3)])
        out = out + g.poly_mul(coeff)
    return out


class TestNormalForm:
    def test_members_reduce_to_zero(self):
        G = rows(Z9, GB_Z9A_TOP)
        for gen in z9a_generators():
            assert normal_form(gen, G, TOP).is_zero()

    def test_zero_input(self):
        from pgroebner import PolyVec

        assert normal_form(PolyVec.zero(Z9, 2), rows(Z9, GB_Z9A_TOP), TOP).is_zero()

    def test_non_member_has_nonzero_remainder(self):
        G = rows(Z9, GB_Z9A_TOP)
        f = vec(Z9, "[1, 0]")
        nf = normal_form(f, G, TOP)
        assert nf == f  # constant in position 1 is untouchable by this basis

    def test_membership_via_single_generator(self):
        s1, _ = z9a_generators()
        nf = normal_form(vec(Z9, "[0, x^6]"), [s1], TOP)
        assert nf == vec(Z9, "[x+5, 3x^4+3x^2+x]")


class TestBuchberger:
    def test_z5_basis_matches_known_display(self):
        G = buchberger(z5_generators(), TOP)
        assert [str(g) for g in G] == [r.strip() for r in GB_Z5_TOP.strip().splitlines()]
        assert {g.lm(TOP) for g in G} == {Monomial(4, 2), Monomial(2, 1)}
        assert module_equal(list(G.elements), rows(Z5, GB_Z5_TOP), TOP)

    def test_z9a_top_basis(self):
        G = buchberger(z9a_generators(), TOP)
        assert len(G) == 4
        lead = [(d.lpos, d.deg, d.ord) for d in G.leads]
        assert lead == [(2, 5, 2), (2, 4, 1), (1, 2, 2), (1, 1, 1)]
        assert module_equal(list(G.elements), rows(Z9, GB_Z9A_TOP), TOP)

    def test_z9a_pot_basis_is_the_generators(self):
        gens = z9a_generators()
        G = buchberger(gens, POT)
        assert list(G.elements) == gens

    def test_z9b_top_basis_matches_known_display(self):
        G = buchberger(z9b_generators(), TOP)
        assert [str(g) for g in G] == [r.strip() for r in GB_Z9B_TOP.strip().splitlines()]

    def test_output_is_groebner_and_minimal(self):
        for gens, order in [
            (z5_generators(), TOP),
            (z9a_generators(), TOP),
            (z9a_generators(), POT),
            (z9b_generators(), TOP),
        ]:
            G = buchberger(gens, order)
            assert is_groebner(list(G.elements), order)
            G.validate()

    def test_module_equality_both_directions(self):
        gens = z9a_generators()
        G = buchberger(gens, TOP)
        for gen in gens:
            assert normal_form(gen, list(G.elements), TOP).is_zero()

    def test_deterministic(self):
        a = render_gb_doc(buchberger(z9a_generators(), TOP))
        b = render_gb_doc(buchberger(z9a_generators(), TOP))
        assert a == b

    def test_random_generator_sets_span_preserved(self):
        from pgroebner import Monomial, PolyVec, Zpr

        rng = random.Random(99)
        for ring in (Zpr(2, 2), Zpr(3, 2), Zpr(2, 3)):
            for _ in range(10):
                gens = []
                while not gens:
                    gens = [
                        g
                        for g in (
                            PolyVec(
                                ring,
                                2,
                                {
                                    Monomial(rng.randrange(4), rng.randrange(1, 3)):
                                        rng.randrange(ring.modulus)
                                    for _ in range(rng.randrange(1, 5))
                                },
                            )
                            for _ in range(rng.randrange(1, 4))
                        )
                        if not g.is_zero()
                    ]
                for order in (TOP, POT):
                    G = buchberger(gens, order)
                    for gen in gens:
                        assert normal_form(gen, list(G.elements), order).is_zero()
                    # completing the output again is a fixed point
                    H = buchberger(list(G.elements), order)
                    assert H.elements == G.elements

    def test_rejects_zero_generator(self):
        from pgroebner import PolyVec

        with pytest.raises(ZeroVector):
            buchberger([PolyVec.zero(Z9, 2)], TOP)

    def test_duplicate_generators_collapse(self):
        s1, s2 = z9a_generators()
        assert buchberger([s1, s1, s2, s2], TOP).elements == buchberger(
            [s1, s2], TOP
        ).elements

    def test_iteration_cap(self):
        from pgroebner import IterationLimitExceeded

        with pytest.raises(IterationLimitExceeded):
            buchberger(z9a_generators(), TOP, max_steps=1)


class TestIsGroebner:
    def test_known_matrix_is_groebner(self):
        assert is_groebner(rows(Z9, GB_Z9A_TOP), TOP)

    def test_raw_generators_are_not(self):
        assert not is_groebner(z9a_generators(), TOP)

    def test_single_unit_generator_is_groebner(self):
        assert is_groebner([vec(Z9, "[x^2+3x+1]")], TOP)
        # a single generator with zero-divisor tail structure is not
        assert not is_groebner([vec(Z9, "[3x+1]")], TOP)


class TestMinimalize:
    def test_already_minimal_unchanged(self):
        G = rows(Z9, GB_Z9A_TOP)
        assert list(minimalize(G, TOP).elements) == G

    def test_redundant_multiple_removed(self):
        G = rows(Z9, GB_Z9A_TOP)
        extra = G + [G[0].term_mul(1, 1)]
        assert list(minimalize(extra, TOP).elements) == G

    def test_sorted_descending(self):
        G = minimalize(list(reversed(rows(Z9, GB_Z9A_TOP))), TOP)
        keys = [TOP.key(g.lm(TOP)) for g in G]
        assert keys == sorted(keys, reverse=True)


class TestGroebnerBasisValidation:
    def test_corrupted_basis_rejected(self):
        G = rows(Z9, GB_Z9A_TOP)
        bad = [G[0], G[0]] + G[2:]
        with pytest.raises(ValidationFailed):
            GroebnerBasis(TOP, tuple(bad))

    def test_unnormalized_lc_rejected(self):
        G = rows(Z9, GB_Z9A_TOP)
        bad = [G[0].scale(2)] + G[1:]
        with pytest.raises(ValidationFailed):
            GroebnerBasis(TOP, tuple(bad))

    def test_size_bound(self):
        G = buchberger(z9a_generators(), TOP)
        assert len(G) <= G.q * G.ring.r


class TestCheckPlm:
    def test_minimal_basis_passes(self):
        G = buchberger(z5_generators(), TOP)
        report = check_plm(list(G.elements), TOP, trials=500, seed=3)
        assert report.passed

    def test_dependent_family_fails_with_witness(self):
        g = vec(Z5, "[x^2+2x+4, 4x^2+2x]")
        F = [g, g.term_mul(1, 1)]
        # hand-built witness: (x + 1)*g - 1*(x*g) = g, whose lm is below the prediction
        from pgroebner import Poly

        f = g.poly_mul(Poly(Z5, (1, 1))) + F[1].scale(4)
        assert f == g
        predicted = Monomial(g.deg(TOP) + 1, g.lpos(TOP))
        assert TOP.compare(f.lm(TOP), predicted) < 0
        report = check_plm(F, TOP, trials=500, seed=1)
        assert not report.passed
        assert report.counterexample is not None
        assert str(report) == (
            "FAIL after 51 trials (seed 1): lm Monomial(alpha=3, pos=1) != predicted "
            "Monomial(alpha=5, pos=1) [4x^3+4x^2+4x+4; x^2+x]"
        )

    def test_single_vector_always_passes(self):
        report = check_plm([vec(Z5, "[x^2+1, 3x]")], TOP, trials=300, seed=9)
        assert report.passed

    def test_requires_field(self):
        with pytest.raises(RingNotField):
            check_plm(rows(Z9, GB_Z9A_TOP), TOP)
