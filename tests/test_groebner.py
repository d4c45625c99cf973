"""Tests for reduction, completion, minimalization, and the PLM check."""

import bisect
import random
from collections import Counter
from operator import itemgetter

import pytest

from pgroebner import (
    POT,
    TOP,
    EnumerationTooLarge,
    GroebnerBasis,
    IterationLimitExceeded,
    Monomial,
    NotReducible,
    PolyVec,
    RingNotField,
    SequenceInput,
    ValidationFailed,
    ZeroVector,
    Zpr,
    buchberger,
    build_module,
    build_p_basis,
    check_plm,
    enumerate_shortest,
    groebner,
    is_groebner,
    minimalize,
    module_equal,
    normal_form,
    reduce_step,
    shortest_lrr,
)
from pgroebner.polyvec import BLOCK
from pgroebner.groebner import (
    _cancel_unit_tails,
    _minimalize_elements,
    _quotient,
    _ReducerIndex,
    lead_data,
    normalize_lc,
)
from pgroebner.reports import lrr_doc, render_gb_doc, render_lrr_doc, render_p_basis_doc
from conftest import (
    GB_Z5_TOP,
    GB_Z9A_TOP,
    GB_Z9B_TOP,
    SEQ_Z5,
    SEQ_Z9A,
    SEQ_Z9B,
    Z4,
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

    def test_given_reducer_must_divide_the_leading_term(self):
        f = vec(Z9, "[3x^2, 0]")
        # another position, a higher degree, then a lower ord than f's
        for by in ("[0, x]", "[x^3, 0]"):
            with pytest.raises(NotReducible):
                reduce_step(f, [], TOP, by=vec(Z9, by))
        with pytest.raises(NotReducible):
            reduce_step(vec(Z9, "[x^2, 0]"), [], TOP, by=vec(Z9, "[3x, 0]"))
        # a dividing reducer need not come from F: one step, its lead cached
        h = reduce_step(f, [], TOP, by=vec(Z9, "[x + 1, 0]"))
        assert h == vec(Z9, "[6x, 0]") and h._cache == (TOP, h._scan(TOP))

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

    def test_iteration_cap_fires_once_too_many_pairs_are_queued(self, monkeypatch):
        # a row queues at most r + 1 pairs; these 4000 rows queue 4040 before
        # any is reduced, and the cap must not wait for them
        gens = [vec(Zpr(2, 8), f"[x^{k % 97}+{k}]") for k in range(1, 4001)]
        queued, reduced = [], []
        push, nf = groebner.heapq.heappush, groebner.normal_form
        monkeypatch.setattr(groebner.heapq, "heappush", lambda h, x: (queued.append(x), push(h, x)))
        monkeypatch.setattr(groebner, "normal_form", lambda *a: (reduced.append(a), nf(*a))[1])
        with pytest.raises(IterationLimitExceeded):
            buchberger(gens, TOP, max_steps=100)
        assert len(queued) == 100 and not reduced

    def test_cap_counts_every_queued_pair(self):
        # the z9a completion queues and reduces a fixed number of pairs
        gens = z9a_generators()
        queued = next(n for n in range(1, 1000) if _completes(gens, TOP, n))
        assert queued > 1 and not _completes(gens, TOP, queued - 1)


def _completes(gens, order, max_steps):
    try:
        buchberger(gens, order, max_steps=max_steps)
    except IterationLimitExceeded:
        return False
    return True


def _seeded_basis(rng, ring, q, size):
    """Vectors with shared positions, equal degrees of different ords, repeated lms."""
    out = []
    while len(out) < size:
        if out and rng.randrange(4) == 0:
            g = rng.choice(out)
            # the same lm again: a copy, or a p-multiple with a lower ord
            out.append(PolyVec(ring, q, dict(g.terms)) if rng.randrange(2) else g.scale(ring.p))
        else:
            terms = {
                Monomial(rng.randrange(4), rng.randrange(1, q + 1)):
                    rng.randrange(ring.modulus) * ring.p ** rng.randrange(ring.r)
                for _ in range(rng.randrange(1, 4))
            }
            out.append(PolyVec(ring, q, terms))
        if out[-1].is_zero():
            out.pop()
    return out


def _pick_reducer(
    mono: Monomial, min_ord: int, reducers: list[PolyVec], order
) -> PolyVec | None:
    """Largest-lm reducer whose lm divides mono and whose ord is >= min_ord; ties by index.

    Every candidate lm shares mono's position, so under either order the
    largest one is the one of highest degree.  A zero reducer raises ZeroVector.
    The linear scan `_ReducerIndex.pick` replaced, kept as its reference.
    """
    best, best_alpha = None, -1
    alpha, pos = mono
    for g in reducers:
        _, (g_alpha, g_pos), g_ord = g.lead(order)
        # strict, so the first index wins ties
        if g_pos == pos and best_alpha < g_alpha <= alpha and g_ord >= min_ord:
            best, best_alpha = g, g_alpha
    return best


def _reference_reduce_step(f, F, order):
    """`reduce_step` with the reducer found by the scan."""
    if f.is_zero():
        raise ZeroVector("cannot reduce the zero vector")
    c, m, o = f.lead(order)
    g = _pick_reducer(m, o, F, order)
    if g is None:
        raise NotReducible("leading term not cancellable by the given reducers")
    gc, gm, go = g.lead(order)
    return f.sub_term_mul(g, _quotient(f.ring, c, gc, f.ring.r - go), m.alpha - gm.alpha)


def _reference_normal_form(f, F, order):
    while not f.is_zero():
        try:
            f = _reference_reduce_step(f, F, order)
        except NotReducible:
            break
    return f


def _reference_module_equal(A, B, order):
    return all(_reference_normal_form(a, B, order).is_zero() for a in A) and all(
        _reference_normal_form(b, A, order).is_zero() for b in B
    )


def _outcome(fn, *args):
    """fn's result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except (NotReducible, ZeroVector) as exc:
        return type(exc)


class TestReducerIndex:
    RINGS = (Zpr(2, 1), Z9, Zpr(2, 8), Zpr(65521, 1))

    def test_index_picks_the_scanned_object(self):
        rng = random.Random(61)
        found = 0
        for ring in self.RINGS:
            for q in range(1, 5):
                for order in (TOP, POT):
                    for _ in range(8):
                        basis = _seeded_basis(rng, ring, q, rng.randrange(1, 24))
                        index = _ReducerIndex(order)
                        for g in basis:
                            index.append(g)
                        assert list(index) == basis
                        for alpha in range(6):
                            for pos in range(1, q + 1):
                                for min_ord in range(ring.r + 2):
                                    mono = Monomial(alpha, pos)
                                    want = _pick_reducer(mono, min_ord, basis, order)
                                    got = index.pick(mono, min_ord)
                                    assert got is want, (ring, q, order, mono, min_ord)
                                    found += want is not None
        assert found > 5000

    def test_index_for_another_order_is_scanned(self):
        basis = [vec(Z9, "[x, x^3]"), vec(Z9, "[0, x^2]")]
        index = _ReducerIndex(POT)
        for g in basis:
            index.append(g)
        # POT files the first element under e1, but its TOP lm is x^3*e2
        f = vec(Z9, "[0, x^3]")
        assert reduce_step(f, index, TOP) == _reference_reduce_step(f, basis, TOP)
        assert reduce_step(f, index, TOP) == vec(Z9, "[8x, 0]")
        assert reduce_step(f, index, POT) == _reference_reduce_step(f, basis, POT)
        assert reduce_step(f, index, POT).is_zero()
        for order in (TOP, POT):
            assert normal_form(f, index, order) == _reference_normal_form(f, basis, order)
        assert normal_form(f, index, TOP) == vec(Z9, "[8x, 0]")

    def test_plain_lists_reduce_as_the_scan_does(self):
        rng = random.Random(67)
        cases = moved = equal = 0
        for ring in self.RINGS + (Zpr(3, 3),):
            for q in range(1, 4):
                for order in (TOP, POT):
                    for _ in range(24):
                        A = _seeded_basis(rng, ring, q, rng.randrange(1, 8))
                        B = _seeded_basis(rng, ring, q, rng.randrange(1, 8))
                        if rng.randrange(3) == 0:  # a Groebner basis, and a combination of it
                            B = list(buchberger(A, order).elements)
                            A = [_random_combination(rng, B)] + A[:1]
                        for f in A:
                            got = _outcome(normal_form, f, B, order)
                            assert got == _outcome(_reference_normal_form, f, B, order)
                            moved += got != f
                        got = _outcome(module_equal, A, B, order)
                        assert got == _outcome(_reference_module_equal, A, B, order)
                        equal += got is True
                        cases += 1
        assert cases >= 500 and moved > 1000 and equal > 40, (cases, moved, equal)

    def test_zero_reducers_raise_where_the_scan_raises(self):
        zero, f = PolyVec.zero(Z9, 2), vec(Z9, "[x, 1]")
        cases = [
            (module_equal, [zero], [], TOP),
            (module_equal, [], [zero], TOP),
            (module_equal, [zero], [zero], TOP),
            (module_equal, [f], [zero], TOP),
            (module_equal, [f], [f, zero], POT),
            (normal_form, zero, [zero], TOP),
            (normal_form, f, [zero], TOP),
            (normal_form, f, [f, zero], POT),
            (reduce_step, zero, [zero], TOP),
            (reduce_step, f, [vec(Z9, "[0, 1]"), zero], TOP),
        ]
        reference = {
            module_equal: _reference_module_equal,
            normal_form: _reference_normal_form,
            reduce_step: _reference_reduce_step,
        }
        got = [_outcome(fn, *args) for fn, *args in cases]
        assert got == [_outcome(reference[fn], *args) for fn, *args in cases]
        assert [g if isinstance(g, (bool, type)) else g.is_zero() for g in got] == [
            True, True, True, ZeroVector, ZeroVector,
            True, ZeroVector, ZeroVector, ZeroVector, ZeroVector,
        ]

    def test_completion_equals_plain_list_completion(self, monkeypatch):
        rng = random.Random(62)
        cases = []
        for k in range(60):
            ring = self.RINGS[k % 3]
            q = 1 + k % 4
            gens = _seeded_basis(rng, ring, q, rng.randrange(1, 4))
            cases += [(gens, order) for order in (TOP, POT)]
        for k, ring in enumerate((Zpr(2, 1), Zpr(2, 8), Zpr(3, 4), Zpr(65521, 1))):
            S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(10 + k)))
            cases.append((list(build_module(S)), TOP))

        def docs():
            out = []
            for gens, order in cases:
                G = buchberger(gens, order)
                out.append(render_gb_doc(G) + render_p_basis_doc(build_p_basis(G)))
            return out

        indexed = docs()
        monkeypatch.setattr(
            groebner._ReducerIndex,
            "pick",
            lambda self, mono, min_ord: _pick_reducer(mono, min_ord, list(self), self.order),
        )
        assert docs() == indexed


def _reference_minimalize(elements, order):
    """The cover scan `_minimalize_elements` replaced, kept as its reference.

    Scanned in ascending lm order (higher ord, then lower index first on
    ties), an element is kept unless a kept one covers it.  Returns the kept
    elements sorted descending by lm.
    """
    leads = [lead_data(g, order) for g in elements]
    idx = sorted(range(len(elements)), key=lambda i: (order.key(leads[i].lm), -leads[i].ord, i))
    kept = []
    for i in idx:
        if not any(leads[j].lm.divides(leads[i].lm) and leads[j].ord >= leads[i].ord
                   for j in kept):
            kept.append(i)
    kept.sort(key=lambda i: order.key(leads[i].lm), reverse=True)
    return [elements[i] for i in kept]


def _reference_cancel_unit_tails(elements, order):
    """The rescan `_cancel_unit_tails` replaced, kept as its reference.

    Smallest lm first, each element cancels its largest tail term that
    `_pick_reducer` finds a unit-lc reducer for among the later elements,
    and then scans its re-sorted terms again, until none is covered.
    """
    ring = elements[0].ring
    out = list(elements)
    for i in range(len(out) - 1, -1, -1):
        g = out[i]
        others = out[i + 1:]
        lead = g.lm(order)
        while True:
            for mono, c in sorted(g.terms.items(), key=lambda t: order.key(t[0]), reverse=True):
                h = None if mono == lead else _pick_reducer(mono, ring.r, others, order)
                if h is not None:
                    g = g.sub_term_mul(h, c, mono.alpha - h.lm(order).alpha)
                    break
            else:
                break
        out[i] = g
    return out


def _finish_inputs(rng, ring, q, size):
    """Non-minimal element lists: `_seeded_basis` plus copies of an lm and an
    ord with another tail, so that the index tie-break decides what is kept."""
    out = _seeded_basis(rng, ring, q, size)
    for g in rng.sample(out, len(out) // 3):
        low = Monomial(0, q)  # the smallest monomial under TOP and POT alike
        if low not in g.terms:
            out.insert(rng.randrange(len(out) + 1),
                       PolyVec(ring, q, {**g.terms, low: rng.randrange(1, ring.modulus)}))
    # longer tails, for the unit-lc elements to cancel
    out += [g.sub_term_mul(rng.choice(out), rng.randrange(ring.modulus), rng.randrange(3))
            for g in rng.sample(out, len(out) // 4)]
    return [g for g in out if not g.is_zero()]


def _below_units(rng, elements):
    """POT elements with terms added at the unit positions after each one's lead position,
    below the unit's degree, and the number of positions so held only below it."""
    units = {g.lpos(POT): g.deg(POT) for g in elements if g.ord(POT) == g.ring.r}
    out, below = [], 0
    for g in elements:
        extra = {Monomial(rng.randrange(d), P): rng.randrange(1, g.ring.modulus)
                 for P, d in units.items() if P > g.lpos(POT) and d and rng.randrange(2)}
        g = g + PolyVec(g.ring, g.q, extra)
        below += sum(all(a < units[P] for a, at in g.terms if at == P) for P in {m.pos for m in extra})
        out.append(g)
    return out, below


class TestFinishByPosition:
    """The staircase finish against the cover scan and the rescan it replaced.

    Over Z_2 to Z_256 with q = 1-4 under TOP and POT, the staircase keeps
    the objects the cover scan keeps, and cancels unit tails to the same
    vectors.  Keeping on `o >= best` instead of `o > best` fails here; taking
    the smallest covered tail term instead of the largest cannot, since the
    fully cancelled tail is unique.
    """

    RINGS = (Zpr(2, 1), Zpr(2, 2), Zpr(2, 3), Z9, Zpr(3, 3), Zpr(5, 2), Zpr(2, 8))

    def test_finish_equals_the_reference(self):
        rng = random.Random(63)
        kept_ties = cancelled = 0
        for ring in self.RINGS:
            for q in range(1, 5):
                for order in (TOP, POT):
                    for _ in range(12):
                        elements = _finish_inputs(rng, ring, q, rng.randrange(1, 16))
                        want = _reference_minimalize(elements, order)
                        got = _minimalize_elements(elements, order)
                        assert [id(g) for g in got[::-1]] == [id(g) for g in want]
                        kept_ties += any(
                            h is not g and h.lm(order) == g.lm(order)
                            and h.ord(order) == g.ord(order) and h != g
                            for g in want for h in elements
                        )
                        norm = [normalize_lc(g, order) for g in want]
                        tails = _reference_cancel_unit_tails(norm, order)
                        assert _cancel_unit_tails(norm, order) == tails
                        assert GroebnerBasis.from_elements(got, order) == GroebnerBasis(
                            order, tuple(tails)
                        )
                        cancelled += tails != norm
        assert kept_ties > 300 and cancelled > 80, (kept_ties, cancelled)

    def test_wide_finish_equals_the_reference(self):
        # wide modules: many units, most at positions an element does not hold
        rng = random.Random(66)
        cancelled = 0
        for ring in self.RINGS:
            for q in (5, 8, 12):
                for order in (TOP, POT):
                    for _ in range(6):
                        elements = _finish_inputs(rng, ring, q, rng.randrange(8, 30))
                        norm = [normalize_lc(g, order) for g in _reference_minimalize(elements, order)]
                        tails = _reference_cancel_unit_tails(norm, order)
                        assert _cancel_unit_tails(norm, order) == tails
                        cancelled += tails != norm
        assert cancelled > 40, cancelled

    @staticmethod
    def _staircase_reads(monkeypatch, order, q):
        # Z_4 staircase: x^2*e_k, plus e_(k+1) at odd k, plus 2x*e_k where 3
        # divides k.  Every read of the finish is counted: the masked slot
        # reads of TOP, the folds and lane reads of POT.
        reads, gens = [], []
        for k in range(1, q + 1):
            gens.append(PolyVec(Z4, q, {Monomial(2, k): 1, **({Monomial(0, k + 1): 1} if k % 2 and k < q else {})}))
            if k % 3 == 0:
                gens.append(PolyVec(Z4, q, {Monomial(1, k): 2}))
        for name in ("_top_slot", "_lane_top", "_held"):
            read = getattr(groebner, name)
            monkeypatch.setattr(groebner, name, lambda *a, read=read: (reads.append(1), read(*a))[1])
        assert len(buchberger(gens, order)) == q + q // 2
        return len(reads)

    def test_finish_probes_grow_linearly_in_q(self, monkeypatch):
        # probing every unit position for every element took 1,124,250 probes at q = 1500
        q = 1500
        reads = self._staircase_reads(monkeypatch, TOP, q)
        assert reads <= q, reads

    def test_pot_finish_reads_grow_linearly_in_q(self, monkeypatch):
        # one fold per element; x^2*e_k + e_(k+1) at odd k also reads position k + 1, which
        # it holds below its unit's degree, and folds again: 1497 reads at q = 600
        q = 600
        reads = self._staircase_reads(monkeypatch, POT, q)
        assert reads <= 5 * q // 2, reads

    def test_multi_block_finish_equals_the_reference(self):
        # elements lifted by x^s, s up to 2 blocks, with tails below x^s, then
        # minimalized: units and tails in several blocks, and q up to 16; under POT
        # also with unit positions held only below their units' degrees, which the
        # fold finds and whose reads must cancel nothing
        rng, aux = random.Random(67), random.Random(68)
        cancelled = spans = below = 0
        for ring in self.RINGS:
            for q in (1, 2, 5, 16):
                for order in (TOP, POT):
                    for _ in range(4):
                        lifted = []
                        for g in _finish_inputs(rng, ring, q, rng.randrange(6, 24)):
                            s = rng.choice((0, BLOCK - 2, BLOCK + 3, 2 * BLOCK + 5))
                            tail = {Monomial(rng.randrange(s), rng.randint(1, q)): rng.randrange(ring.modulus)
                                    for _ in range(rng.randrange(8) if s else 0)}
                            lifted.append(g.term_mul(1, s) + PolyVec(ring, q, tail))
                        norm = [normalize_lc(g, order)
                                for g in _reference_minimalize([g for g in lifted if g], order)]
                        tails = _reference_cancel_unit_tails(norm, order)
                        assert _cancel_unit_tails(norm, order) == tails
                        cancelled += tails != norm
                        spans += any(len(g._blocks) > 1 for g in tails)
                        if order is POT:
                            held, n = _below_units(aux, norm)
                            assert _cancel_unit_tails(held, POT) == _reference_cancel_unit_tails(held, POT)
                            below += n
        assert cancelled > 80 and spans > 120 and below > 200, (cancelled, spans, below)

    def test_pot_cancellations_reach_past_the_input_degrees(self):
        # under POT a unit's terms at later positions may lie above its own degree: cancelling
        # x^a*e_2 adds x^(a+d2)*e_3, above every input term, in the top block or past it
        Z2 = Zpr(2, 1)
        for d3, d2, a in ((4, 3, 5), (300, 299, 300)):
            g = PolyVec(Z2, 3, {Monomial(0, 1): 1, Monomial(a, 2): 1})
            h2 = PolyVec(Z2, 3, {Monomial(0, 2): 1, Monomial(d2, 3): 1})
            h3 = PolyVec(Z2, 3, {Monomial(d3, 3): 1})
            got = _cancel_unit_tails([g, h2, h3], POT)
            assert got == _reference_cancel_unit_tails([g, h2, h3], POT)
            assert got[0] == PolyVec(Z2, 3, {Monomial(0, 1): 1})

    def test_non_minimal_lists_keep_their_leading_data(self):
        rng = random.Random(64)
        for ring in self.RINGS:
            for q in range(1, 5):
                for order in (TOP, POT):
                    for _ in range(6):
                        elements = _finish_inputs(rng, ring, q, rng.randrange(2, 16))
                        norm = [normalize_lc(g, order) for g in elements]
                        norm.sort(key=lambda g: order.key(g.lm(order)), reverse=True)
                        leads = [g.lead(order) for g in norm]
                        assert [g.lead(order) for g in _cancel_unit_tails(norm, order)] == leads
                        assert [
                            g.lead(order) for g in _reference_cancel_unit_tails(norm, order)
                        ] == leads

    def test_completion_equals_the_reference_finish(self, monkeypatch):
        rng = random.Random(65)
        cases = []
        for k in range(42):
            ring = self.RINGS[k % len(self.RINGS)]
            gens = _seeded_basis(rng, ring, 1 + k % 4, rng.randrange(1, 5))
            cases += [(gens, order) for order in (TOP, POT)]
        for ring in (Zpr(2, 8), Zpr(3, 4)):
            S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(12)))
            cases.append((list(build_module(S)), TOP))

        def docs():
            return [render_gb_doc(buchberger(gens, order)) for gens, order in cases]

        finished = docs()
        monkeypatch.setattr(groebner, "_minimalize_elements", _reference_minimalize)
        monkeypatch.setattr(groebner, "_cancel_unit_tails", _reference_cancel_unit_tails)
        assert docs() == finished


def _baseline_sequence(ring, n):
    """The seeded sequence of length n that the ROADMAP baseline table times."""
    rng = random.Random(n * 1000 + ring.modulus)
    return SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))


def _pair_counts(monkeypatch, S):
    """The pairs the completion of S's interpolation module queues and the pair
    reductions it runs: `shortest_lrr(S)`'s for r > 1, its reference for r = 1."""
    queued, reduced = [], []
    push, nf = groebner.heapq.heappush, groebner.normal_form
    monkeypatch.setattr(groebner.heapq, "heappush", lambda h, x: (queued.append(x), push(h, x)))
    monkeypatch.setattr(groebner, "normal_form", lambda *a: (reduced.append(a), nf(*a))[1])
    buchberger(list(build_module(S)), TOP)
    return len(queued), len(reduced)


def _reference_partners(basis, alpha, pos, o):
    """The walk `_partners` replaced, kept as its reference.

    The earlier elements of the position are walked in the order their pairs
    pop, ascending (lcm degree, index): first those of degree <= alpha, whose
    lcm is alpha, by index, then the others by degree (reverse=True keeps a
    stable sort, so equal degrees stay in index order).  best is the highest
    ord walked so far; the pair with i is kept only if best < min(ord i, o),
    and once best reaches o no later pair can be.
    """
    leads = (g.lead(basis.order) for g in basis)
    bucket = sorted((-m.alpha, i, g_ord) for i, (_, m, g_ord) in enumerate(leads) if m.pos == pos)
    cut = bisect.bisect_left(bucket, (-alpha,))
    walk = sorted(bucket[cut:], key=itemgetter(1))
    walk += sorted(bucket[:cut], key=itemgetter(0), reverse=True)
    out, best = [], 0
    for neg, i, ord_i in walk:
        if best < min(ord_i, o):
            out.append((neg, i, ord_i))
        elif best >= o:
            break
        best = max(best, ord_i)
    return out


class _PairLog:
    """The pairs `buchberger` pushes and pops, each as (completion, newer, older).

    Completions are told apart by their heap, which the log keeps alive, so
    a later completion's heap cannot take over its id.
    """

    def __init__(self, monkeypatch):
        self.heap, self.completion = None, 0
        self.pushed, self.popped = [], []
        push, pop = groebner.heapq.heappush, groebner.heapq.heappop

        def logged_push(h, x):
            self.pushed.append(self._pair(h, x))
            push(h, x)

        def logged_pop(h):
            x = pop(h)
            self.popped.append(self._pair(h, x))
            return x

        monkeypatch.setattr(groebner.heapq, "heappush", logged_push)
        monkeypatch.setattr(groebner.heapq, "heappop", logged_pop)

    def _pair(self, heap, entry):
        if heap is not self.heap:
            self.heap, self.completion = heap, self.completion + 1
        return self.completion, entry[1], entry[2]


def _most_s_pairs_per_element(monkeypatch, modules, sequences):
    """The most S-pairs one added element queues; asserts that none queues
    more than r S-pairs or more than one annihilator pair."""
    log = _PairLog(monkeypatch)
    runs = [(gens[0].ring, buchberger, (gens, order)) for gens, order in modules]
    runs += [(S.ring, buchberger, (list(build_module(S)), TOP)) for S in sequences]
    most = 0
    for ring, fn, args in runs:
        log.pushed.clear()
        fn(*args)
        per_element = Counter((c, k, i == k) for c, k, i in log.pushed)
        for (_, k, annihilator), count in per_element.items():
            assert count <= (1 if annihilator else ring.r), (ring, args, k)
            most = max(most, 0 if annihilator else count)
    return most


def _documents(modules, sequences, check):
    """The gb and p-basis documents of the modules, then the gb document of each
    sequence's interpolation module, which `shortest_lrr` leaves to `_field_basis`
    over a field, with its lrr document."""
    out = []
    for gens, order in modules:
        G = buchberger(gens, order)
        assert not check or is_groebner(list(G), order)
        out.append(render_gb_doc(G) + render_p_basis_doc(build_p_basis(G)))
    for S in sequences:
        sol = shortest_lrr(S)
        try:
            monic = enumerate_shortest(sol, cap=512)
        except EnumerationTooLarge:
            monic = None
        G = buchberger(list(build_module(S)), TOP)
        out.append(render_gb_doc(G) + render_lrr_doc(lrr_doc(sol, monic)))
    return out


class TestFieldPairs:
    """Over a field each new element forms one S-pair; all pairs stay the reference."""

    FIELDS = (Zpr(2, 1), Zpr(3, 1), Zpr(7, 1), Zpr(65521, 1))

    @classmethod
    def _inputs(cls):
        """Seeded q = 1..4 modules under TOP and POT, and sequences up to n = 64."""
        rng = random.Random(64)
        modules, sequences = [], []
        for k in range(96):
            ring, q = cls.FIELDS[k % 4], 1 + k // 4 % 4
            gens = [
                PolyVec(ring, q, {
                    Monomial(rng.randrange(7), rng.randrange(1, q + 1)): rng.randrange(1, ring.modulus)
                    for _ in range(rng.randrange(1, 6))
                })
                for _ in range(rng.randrange(1, 5))
            ]
            modules += [(gens, order) for order in (TOP, POT)]
        for ring in cls.FIELDS:
            for n in (1, 2, 5, 16, 33, 64):
                sequences.append(SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n))))
        return modules, sequences

    def test_one_pair_per_element_equals_all_pairs(self, all_pairs):
        modules, sequences = self._inputs()
        one_pair = _documents(modules, sequences, check=True)
        all_pairs()
        assert _documents(modules, sequences, check=False) == one_pair

    def test_an_element_queues_at_most_one_s_pair(self, monkeypatch):
        assert _most_s_pairs_per_element(monkeypatch, *self._inputs()) == 1

    @pytest.mark.parametrize("p, n", [(2, 32), (2, 64), (2, 128), (2, 256), (65521, 32), (65521, 64)])
    def test_field_completion_reduces_at_most_n_pairs(self, monkeypatch, p, n):
        assert _pair_counts(monkeypatch, _baseline_sequence(Zpr(p, 1), n))[1] <= n


class TestChainPairs:
    """For r > 1 the chain criterion drops pairs as they are queued; all pairs stay the reference."""

    RINGS = (Zpr(2, 2), Zpr(2, 3), Zpr(3, 2), Zpr(3, 3), Zpr(3, 4), Zpr(2, 8))

    @classmethod
    def _inputs(cls):
        """Seeded q = 1..4 modules under TOP and POT, and sequences up to n = 32."""
        rng = random.Random(66)
        modules, sequences = [], []
        for k in range(96):
            ring, q = cls.RINGS[k % 6], 1 + k // 6 % 4
            if k % 2:
                gens = _seeded_basis(rng, ring, q, rng.randrange(1, 5))
            else:
                gens = [
                    PolyVec(ring, q, {
                        Monomial(rng.randrange(6), rng.randrange(1, q + 1)): rng.randrange(1, ring.modulus)
                        for _ in range(rng.randrange(1, 6))
                    })
                    for _ in range(rng.randrange(1, 5))
                ]
            modules += [(gens, order) for order in (TOP, POT)]
        for ring in cls.RINGS:
            for n in (1, 3, 8, 13, 21, 32):
                sequences.append(SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n))))
        return modules, sequences

    def test_chain_criterion_equals_all_pairs(self, all_pairs):
        modules, sequences = self._inputs()
        skipping = _documents(modules, sequences, check=True)
        all_pairs()
        assert _documents(modules, sequences, check=False) == skipping

    def test_every_dropped_pair_reduces_to_zero_where_all_pairs_pops_it(self, monkeypatch, all_pairs):
        # every pair is queued, and what the rule would keep is recorded per
        # insertion: all pushes of one insertion come before the next call
        log = _PairLog(monkeypatch)
        rule, calls, zero = groebner._partners, [], {}
        all_pairs()
        every = groebner._partners

        def recorded(basis, alpha, pos, o):
            calls.append((len(log.pushed), {i for _, i, _ in rule(basis, alpha, pos, o)}))
            return every(basis, alpha, pos, o)

        monkeypatch.setattr(groebner, "_partners", recorded)
        nf = groebner.normal_form

        def audited(vec, F, order):
            h = nf(vec, F, order)
            if type(F) is _ReducerIndex:  # buchberger reduces the pair it popped last
                zero[log.popped[-1]] = h.is_zero()
            return h

        monkeypatch.setattr(groebner, "normal_form", audited)
        _documents(*self._inputs(), check=False)
        ends = [start for start, _ in calls[1:]] + [len(log.pushed)]
        dropped = set()
        for (start, kept), end in zip(calls, ends):
            s_pairs = {pair for pair in log.pushed[start:end] if pair[1] != pair[2]}
            assert kept <= {i for _, _, i in s_pairs}
            dropped |= {pair for pair in s_pairs if pair[2] not in kept}
        assert dropped <= set(log.popped)
        # a pair whose S-vector is zero is never reduced
        assert all(zero.get(pair, True) for pair in dropped)
        assert len(dropped) > 1000

    def test_an_element_queues_at_most_r_s_pairs(self, monkeypatch):
        assert _most_s_pairs_per_element(monkeypatch, *self._inputs()) > 1

    def test_z256_n256_completes_under_a_small_cap(self):
        # it queues 2279 pairs, as the walk `_partners` replaced did, so one
        # pair less fails; queuing every pair of a position took 89234
        S = _baseline_sequence(Zpr(2, 8), 256)
        shortest_lrr(S, max_steps=2279)
        with pytest.raises(IterationLimitExceeded):
            shortest_lrr(S, max_steps=2278)

    @pytest.mark.parametrize(
        "p, r, queued, count", [(2, 8, 10352, 1932), (3, 4, 4575, 1423)], ids=["Z256-n1024", "Z81-n1024"]
    )
    def test_work_at_scale(self, monkeypatch, p, r, queued, count):
        # counted with the walk `_partners` replaced; all pairs would be too slow here
        assert _pair_counts(monkeypatch, _baseline_sequence(Zpr(p, r), 1024)) == (queued, count)

    @pytest.mark.parametrize(
        "p, r, n, queued, count, all_queued, all_count",
        [
            (2, 8, 16, 233, 108, 741, 616),
            (3, 4, 32, 148, 47, 1031, 930),
            (2, 8, 32, 497, 106, 3648, 3257),
        ],
        ids=["Z256-n16", "Z81-n32", "Z256-n32"],
    )
    def test_chain_ring_completion_skips_chain_pairs(
        self, monkeypatch, all_pairs, p, r, n, queued, count, all_queued, all_count
    ):
        # the rule drops pairs before they are queued, so the reference queues more
        S = _baseline_sequence(Zpr(p, r), n)
        assert _pair_counts(monkeypatch, S) == (queued, count)
        all_pairs()
        assert _pair_counts(monkeypatch, S) == (all_queued, all_count)


class TestPartners:
    """`_partners` reads from the stairs exactly the pairs the walk it replaced kept."""

    RINGS = (Zpr(2, 1), Zpr(2, 2), Zpr(2, 3), Zpr(3, 2), Zpr(3, 3), Zpr(3, 4), Zpr(2, 8))

    @classmethod
    def _cases(cls):
        """Interpolation modules of n < 40, and seeded q = 1..4 modules, under TOP and POT."""
        rng = random.Random(71)
        cases = []
        for k in range(1050):
            ring = cls.RINGS[k % 7]
            S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(rng.randrange(1, 40))))
            cases.append((list(build_module(S)), (TOP, POT)[k % 2]))
        for k in range(1050):
            ring, q = cls.RINGS[k % 7], 1 + k // 7 % 4
            cases.append((_seeded_basis(rng, ring, q, rng.randrange(1, 6)), (TOP, POT)[k % 2]))
        return cases

    def test_pushes_and_bases_equal_the_walk(self, monkeypatch):
        cases, pushed = self._cases(), []
        push = groebner.heapq.heappush
        monkeypatch.setattr(groebner.heapq, "heappush", lambda h, x: (pushed.append(x), push(h, x)))

        def runs():
            out = []
            for gens, order in cases:
                pushed.clear()
                G = buchberger(gens, order)
                out.append((list(pushed), G.elements))
            return out

        got = runs()
        monkeypatch.setattr(groebner, "_partners", _reference_partners)
        want = runs()
        for k, (case_got, case_want) in enumerate(zip(got, want)):
            assert case_got == case_want, k
        s_pairs = sum(k != i for pushes, _ in got for _, k, i in pushes)
        assert len(cases) >= 2000 and s_pairs > 25000, s_pairs


def _reference_quotient(ring, target, by):
    """The quotient as unit parts and `Zpr.inv` give it."""
    vt, vb = ring.vp(target), ring.vp(by)
    c = ring.mul(ring.unit_part(target), ring.inv(ring.unit_part(by))) * ring.p ** (vt - vb)
    return c % ring.p ** (ring.r - vb)


def _unit(rng, ring):
    while True:
        u = rng.randrange(1, ring.modulus)
        if u % ring.p:
            return u


class TestQuotient:
    def test_exhaustive_small_rings(self):
        for p, r in ((2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
            ring = Zpr(p, r)
            pairs = 0
            for target in range(1, ring.modulus):
                for by in range(1, ring.modulus):
                    if ring.vp(by) <= ring.vp(target):
                        c = _quotient(ring, target, by, ring.vp(by))
                        assert c == _reference_quotient(ring, target, by), (ring, target, by)
                        assert c * by % ring.modulus == target
                        pairs += 1
            assert pairs > ring.modulus

    def test_seeded_large_rings(self):
        rng = random.Random(63)
        for ring in (Zpr(2, 8), Zpr(65521, 1)):
            for _ in range(3000):
                vb = rng.randrange(ring.r)
                vt = rng.randrange(vb, ring.r)
                by = _unit(rng, ring) * ring.p**vb % ring.modulus
                target = _unit(rng, ring) * ring.p**vt % ring.modulus
                c = _quotient(ring, target, by, ring.vp(by))
                assert c == _reference_quotient(ring, target, by)
                assert c * by % ring.modulus == target


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

    def test_zero_element_rejected(self):
        G = tuple(rows(Z9, GB_Z9A_TOP))
        for bad in ((PolyVec.zero(Z9, 2),), G + (PolyVec.zero(Z9, 2),)):
            with pytest.raises(ValidationFailed, match="zero element"):
                GroebnerBasis(TOP, bad)

    def test_size_bound(self):
        G = buchberger(z9a_generators(), TOP)
        assert len(G) <= G.q * G.ring.r


def _reference_validate(elements, order):
    """The pairwise validation the staircase walk replaced: every pair is
    scanned for reducibility and for same-position monotonicity, adjacent
    lms for descent, and the size is held against q*r."""
    ring, q = elements[0].ring, elements[0].q
    leads = [lead_data(g, order) for g in elements]
    for i, di in enumerate(leads):
        if ring.unit_part(di.lc) != 1:
            raise ValidationFailed(f"element {i} has unnormalized lc {di.lc}")
        for j, dj in enumerate(leads):
            if j != i and dj.lm.divides(di.lm) and dj.ord >= di.ord:
                raise ValidationFailed(f"element {i} is reducible by element {j}")
        if i + 1 < len(leads) and order.compare(di.lm, leads[i + 1].lm) <= 0:
            raise ValidationFailed("elements not strictly descending by lm")
        for j in range(i):
            dj = leads[j]
            if dj.lpos == di.lpos and not (dj.deg > di.deg and dj.ord > di.ord):
                raise ValidationFailed(f"same-position monotonicity violated at {j}, {i}")
    if len(elements) > q * ring.r:
        raise ValidationFailed(f"basis has {len(elements)} > q*r elements")


def _verdict(check, *args):
    try:
        check(*args)
    except ValidationFailed as exc:
        return str(exc)
    return None


def _staircase_mutants(rng, ring, q, order, count):
    """Element lists made from one completed basis: elements duplicated,
    swapped, scaled by p, scaled by a unit or added, half of them re-sorted
    descending by lm so that the staircase rather than the descent decides."""
    gens = []
    while not gens:
        gens = [
            g for g in (
                PolyVec(ring, q, {Monomial(rng.randrange(4), rng.randrange(1, q + 1)):
                                  rng.randrange(ring.modulus) for _ in range(rng.randrange(1, 5))})
                for _ in range(rng.randint(1, 4))
            ) if not g.is_zero()
        ]
    base = list(buchberger(gens, order).elements)
    for _ in range(count):
        els = list(base)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(len(els)), rng.randrange(len(els))
            kind = rng.randrange(5)
            if kind == 0:
                els.insert(rng.randrange(len(els) + 1), els[i])
            elif kind == 1:
                els[i], els[j] = els[j], els[i]
            elif kind == 2 and ring.p * els[i].lc(order) % ring.modulus:
                els[i] = els[i].scale(ring.p)
            elif kind == 3:
                els[i] = els[i].scale(_unit(rng, ring))
            elif kind == 4:
                added = rng.choice([els[i].term_mul(1, rng.randrange(3)), els[i] + els[j]])
                if not added.is_zero():
                    els.insert(rng.randrange(len(els) + 1), normalize_lc(added, order))
        if rng.randrange(2):
            els.sort(key=lambda g: order.key(g.lm(order)), reverse=True)
        yield els


class TestStaircaseValidation:
    """`validate`'s one staircase walk against the pairwise scans it replaced.

    Over Z_4, Z_8, Z_9 and Z_27 with q = 1-4 under TOP and POT, both accept
    and reject the same lists, and every reason the walk gives is true of
    the list it rejects.
    """

    RINGS = (Zpr(2, 2), Zpr(2, 3), Z9, Zpr(3, 3))

    def test_walk_equals_the_pairwise_reference(self):
        rng = random.Random(1801)
        kinds = Counter()
        for ring in self.RINGS:
            for q in (1, 2, 3, 4):
                for order in (TOP, POT):
                    for _ in range(4):
                        for els in _staircase_mutants(rng, ring, q, order, 30):
                            got = _verdict(GroebnerBasis, order, tuple(els))
                            assert (got is None) == (_verdict(_reference_validate, els, order) is None)
                            kinds[_true_reason(got, els, order)] += 1
        assert sum(kinds.values()) == 3840
        assert set(kinds) == {"accept", "lc", "reducible", "descent"}
        assert min(kinds.values()) >= 100

    def test_construction_checks_the_elements_once_and_validate_checks_all(self, monkeypatch):
        calls = []
        check = GroebnerBasis._check_elements
        monkeypatch.setattr(GroebnerBasis, "_check_elements", lambda G: calls.append(G) or check(G))
        G = buchberger(z9a_generators(), POT)
        assert len(calls) == 1
        G.validate()
        assert calls == [G, G]
        # validate alone still runs every check: on the elements, then on the leads
        elements, leads = G.elements, G.leads
        object.__setattr__(G, "elements", (elements[0], elements[1].scale(0)))
        with pytest.raises(ValidationFailed, match="zero element in basis"):
            G.validate()
        object.__setattr__(G, "elements", elements)
        object.__setattr__(G, "leads", leads[::-1])
        with pytest.raises(ValidationFailed, match="not strictly descending"):
            G.validate()

    def test_equal_lms_are_reducible_in_either_order(self):
        # sorting keeps equal lms in input order; either way one element is reducible
        x, x3 = vec(Z9, "[x]"), vec(Z9, "[3x]")
        with pytest.raises(ValidationFailed, match="^element 0 is reducible by element 1$"):
            GroebnerBasis.from_elements([x3, x], TOP)
        with pytest.raises(ValidationFailed, match="^element 1 is reducible by element 0$"):
            GroebnerBasis.from_elements([x, x3], TOP)

    def test_wide_staircase_module(self):
        # q = 300 over Z_8: at position k, x^3 + c, then 2x^2 + 2c, and 4x + 4c if 3 | k
        ring, q = Zpr(2, 3), 300
        els = [
            PolyVec(ring, q, {Monomial(3 - e, k): 2**e, Monomial(0, k): 2**e * (k % 7 + 1)})
            for k in range(1, q + 1)
            for e in range(3 if k % 3 == 0 else 2)
        ]
        for order in (TOP, POT):
            G = GroebnerBasis.from_elements(els, order)
            assert len(G) == 700
            assert _verdict(_reference_validate, list(G.elements), order) is None
            # a copy of the element below the top at one position breaks the staircase
            bad = list(G.elements)
            i = next(i for i, d in enumerate(G.leads) if d.lpos == 150 and d.ord == 2)
            bad.insert(i, bad[i])
            reason = _verdict(GroebnerBasis, order, tuple(bad))
            assert reason == f"element {i} is reducible by element {i + 1}"


def _true_reason(reason, els, order):
    """The kind of a walk's verdict, asserting that its reason holds for els."""
    if reason is None:
        return "accept"
    leads = [lead_data(g, order) for g in els]
    ring = els[0].ring
    if "unnormalized" in reason:
        i = int(reason.split()[1])
        assert leads[i].lc != ring.p ** (ring.r - leads[i].ord)
        return "lc"
    if "reducible" in reason:
        words = reason.split()
        a, b = leads[int(words[1])], leads[int(words[-1])]
        assert b.lm.divides(a.lm) and b.ord >= a.ord
        return "reducible"
    assert reason == "elements not strictly descending by lm"
    assert any(order.compare(x.lm, y.lm) <= 0 for x, y in zip(leads, leads[1:]))
    return "descent"


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
