"""Tests for order differences, p-basis construction, and digit representation."""

import random
from collections import Counter

import pytest

from pgroebner import (
    POT,
    TOP,
    GroebnerBasis,
    Monomial,
    MonomialOrder,
    NotInModule,
    PBasis,
    Poly,
    PolyVec,
    SequenceInput,
    ValidationFailed,
    ZeroVector,
    Zpr,
    buchberger,
    build_module,
    build_p_basis,
    check_p_plm,
    format_p_basis,
    order_differences,
    p_dim,
    p_represent,
    parse_matrix,
)
from pgroebner import pbasis
from pgroebner.pbasis import _represent
from pgroebner.polyvec import combine
from conftest import SEQ_Z9A, Z4, Z5, Z9, vec


def z9a_top_basis():
    return buchberger(list(build_module(SequenceInput(Z9, SEQ_Z9A))), TOP)


def z9a_pot_basis():
    return buchberger(list(build_module(SequenceInput(Z9, SEQ_Z9A))), POT)


class TestOrderDifferences:
    def test_top_all_ones(self):
        assert order_differences(z9a_top_basis()).betas == (1, 1, 1, 1)

    def test_pot_full_drop(self):
        assert order_differences(z9a_pot_basis()).betas == (2, 2)

    def test_field_case_all_ones(self):
        G = buchberger(list(build_module(SequenceInput(Z5, (1, 4, 3, 3, 2)))), TOP)
        assert order_differences(G).betas == (1,) * len(G)


class TestBuildPBasis:
    def test_pot_expansion_is_scaled_generators(self):
        G = z9a_pot_basis()
        basis = build_p_basis(G)
        s1, s2 = G.elements
        assert list(basis.vectors) == [s1, s1.scale(3), s2, s2.scale(3)]
        assert basis.provenance == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_top_expansion_is_the_basis_itself(self):
        G = z9a_top_basis()
        basis = build_p_basis(G)
        assert list(basis.vectors) == list(G.elements)
        assert basis.N == 4

    def test_field_case_identity(self):
        G = buchberger(list(build_module(SequenceInput(Z5, (1, 4, 3, 3, 2)))), TOP)
        basis = build_p_basis(G)
        assert list(basis.vectors) == list(G.elements)

    def test_field_bases_skip_the_chain_end_checks(self, monkeypatch):
        # over Z_p, p times any vector is zero: no chain end is scaled to be checked
        rng = random.Random(27)
        bases = [buchberger(list(build_module(SequenceInput(ring, tuple(
            rng.randrange(ring.p) for _ in range(n))))), TOP)
            for ring in (Z5, Zpr(7, 1), Zpr(65521, 1)) for n in (1, 6, 17)]
        bases += [buchberger([_random_vector(rng, Zpr(7, 1), q) for _ in range(3)], order)
                  for q in (2, 3, 4) for order in (TOP, POT)]
        scaled, scale = [], PolyVec.scale
        monkeypatch.setattr(PolyVec, "scale", lambda v, *a: (scaled.append(a), scale(v, *a))[1])
        for G in bases:
            scaled.clear()
            basis = build_p_basis(G)
            assert scaled == []
            assert basis == _reference_build_p_basis(G)

    def test_leads_are_cached_as_built_and_equal_a_fresh_scan(self):
        # p^e * g_j gets lm(g_j), lc p^(r - ord + e) and ord ord - e as it is
        # built, so `_represent` and the lrr pivot search scan no vector again
        rng = random.Random(1403)
        vectors = 0
        for basis in _represent_bases(rng):
            order = basis.order
            for v in basis.vectors:
                assert v._cache[0] is order
                assert v.lead(order) == v._scan(order)
                vectors += 1
        assert vectors > 400, vectors

    def test_chain_heads_are_the_basis_elements(self):
        # seeded matrices as the modules workload draws them: q = 2-4, 2-4 rows, degrees <= 3
        rng = random.Random(26)
        counts = [0, 0]
        for ring in (Zpr(7, 1), Zpr(2, 3), Zpr(2, 4), Zpr(5, 2), Zpr(3, 3)):
            for q in (2, 3, 4):
                for k in (2, 3, 4):
                    rows = []
                    while len(rows) < k:
                        comps = [Poly(ring, [rng.randrange(ring.modulus) for _ in range(rng.randint(0, 4))])
                                 for _ in range(q)]
                        if any(comps):
                            rows.append(PolyVec.from_components(ring, comps))
                    for order in (TOP, POT):
                        G = buchberger(rows, order)
                        basis = build_p_basis(G)
                        # every field as when each vector was built by `scale`, heads included
                        assert basis == _reference_build_p_basis(G)
                        for v, (j, e) in zip(basis.vectors, basis.provenance):
                            assert (v is G.elements[j]) == (e == 0)
                            assert v.lead(order) == v._scan(order)
                            counts[e > 0] += 1
        assert counts[0] > 150 and counts[1] > 50, counts  # chain heads and scaled vectors

    def test_position_order_pairs_distinct(self):
        for basis in (build_p_basis(z9a_top_basis()), build_p_basis(z9a_pot_basis())):
            seen = set()
            for v in basis.vectors:
                key = (v.lpos(basis.order), v.ord(basis.order))
                assert key not in seen
                seen.add(key)


def _reference_represent(
    f: PolyVec, vectors: tuple[PolyVec, ...] | list[PolyVec], order: MonomialOrder
) -> tuple[Poly, ...]:
    """Greedy digit-coefficient representation of f over a p-basis fragment.

    At each step the leading coefficient of the residual is split into
    digits along the p-power layers offered by the vectors whose leading
    monomial divides the residual's; the layers are distinct, so every
    digit is forced and the leading monomial strictly decreases.  The scan
    and sort `_represent`'s (position, order) lookup replaced, kept as its
    reference.
    """
    ring = f.ring
    digits: list[dict[int, int]] = [{} for _ in vectors]
    work = f
    while not work.is_zero():
        c, X = work.lt(order)
        cands = [
            (ring.r - v.ord(order), i, v)
            for i, v in enumerate(vectors)
            if v.lm(order).divides(X)
        ]
        if not cands:
            raise NotInModule(f"leading term at {X} has no matching basis vector")
        cands.sort()
        assert len({e for e, _, _ in cands}) == len(cands)
        rem = c
        used: list[tuple[int, int, int]] = []
        for e, i, v in cands:
            if rem == 0:
                break
            if rem % ring.p**e != 0:
                raise NotInModule(f"coefficient {c} at {X} is not digit-expressible")
            u = v.lc(order) // ring.p**e  # lc = u * p^e, e = r - ord from the lead cache
            theta = ((rem // ring.p**e) % ring.p) * pow(u, -1, ring.p) % ring.p
            if theta:
                rem = ring.sub(rem, theta * u * ring.p**e)
                used.append((i, theta, X.alpha - v.lm(order).alpha))
        if rem != 0:
            raise NotInModule(f"coefficient {c} at {X} is not digit-expressible")
        for i, theta, shift in used:
            assert shift not in digits[i]
            digits[i][shift] = theta
            work = work.sub_term_mul(vectors[i], theta, shift)
        assert work.is_zero() or order.compare(work.lm(order), X) < 0
    out = []
    for d in digits:
        top = max(d, default=-1)
        out.append(Poly(ring, (d.get(k, 0) for k in range(top + 1))))
    return tuple(out)


def _reference_build_p_basis(G):
    """The all-vectors p-generator check: p times every vector but the last
    is digit-represented over the later vectors and re-evaluated, and every
    pair of vectors is compared for a shared leading position and order.
    The betas come from a rescan of the later leads for every element."""
    ring, order = G.ring, G.order
    betas = tuple(
        d.ord - next((c.ord for c in G.leads[j + 1 :] if c.lpos == d.lpos), 0)
        for j, d in enumerate(G.leads)
    )
    vectors, provenance = [], []
    for j, g in enumerate(G.elements):
        for e in range(betas[j]):
            vectors.append(g.scale(ring.p**e))
            provenance.append((j, e))
    basis = PBasis(order, tuple(vectors), tuple(provenance), betas)
    for i, vi in enumerate(vectors):
        for k in range(i + 1, len(vectors)):
            vk = vectors[k]
            if vi.lpos(order) == vk.lpos(order) and vi.ord(order) == vk.ord(order):
                raise ValidationFailed(
                    f"vectors {i} and {k} share leading position and order"
                )
    for i, vi in enumerate(vectors):
        pv = vi.scale(ring.p)
        if i == len(vectors) - 1:
            if not pv.is_zero():
                raise ValidationFailed("p times the last vector is nonzero")
            continue
        if pv.is_zero():
            continue
        tail = vectors[i + 1 :]
        try:
            coeffs = _reference_represent(pv, tail, order)
        except NotInModule as exc:
            raise ValidationFailed(
                f"p * vector {i} is not a digit combination of the later vectors"
            ) from exc
        if combine(coeffs, tail) != pv:
            raise ValidationFailed(f"digit expression for p * vector {i} is inexact")
    return basis


def _verdict(build, G):
    try:
        return build(G)
    except ValidationFailed as exc:
        return f"ValidationFailed: {exc}"


def _random_vector(rng, ring, q, deg=3):
    while True:
        comps = [
            Poly(ring, [rng.randrange(ring.modulus) for _ in range(rng.randint(0, deg + 1))])
            for _ in range(q)
        ]
        v = PolyVec.from_components(ring, comps)
        if not v.is_zero():
            return v


CHAIN_RINGS = [Zpr(2, 2), Zpr(2, 3), Zpr(3, 2), Zpr(2, 4), Zpr(5, 2), Zpr(3, 3), Zpr(2, 8)]


class TestChainByChainCheck:
    """build_p_basis against the all-vectors reference: the same p-basis when
    both accept, the same ValidationFailed message when both reject.  No
    validated basis reaches the shared-layer branch, so none is built here."""

    def _assert_same_accepting(self, bases):
        internal = 0
        for G in bases:
            ref = _reference_build_p_basis(G)
            assert build_p_basis(G) == ref
            internal += sum(b - 1 for b in ref.betas)
        return internal

    def test_completed_modules(self):
        rng = random.Random(1401)
        bases = []
        for ring in CHAIN_RINGS:
            for q in (2, 3, 4):
                for _ in range(2):
                    gens = [_random_vector(rng, ring, q) for _ in range(rng.randint(2, 4))]
                    bases += [buchberger(gens, order) for order in (TOP, POT)]
        assert len(bases) == 84
        assert self._assert_same_accepting(bases) > 300  # chain-internal vectors

    def test_lrr_interpolation_modules(self):
        rng = random.Random(1402)
        bases = []
        for ring in (Zpr(3, 4), Zpr(2, 8)):
            for n in range(1, 13):
                seq = tuple(rng.randrange(ring.modulus) for _ in range(n))
                gens = list(build_module(SequenceInput(ring, seq)))
                bases += [buchberger(gens, order) for order in (TOP, POT)]
        assert self._assert_same_accepting(bases) > 300

    def test_non_groebner_bases(self):
        # structurally valid GroebnerBasis objects of random vectors, most of
        # them not Groebner bases of anything they were built from
        rng = random.Random(1403)
        seen = {}
        while sum(seen.values()) < 300:
            ring = rng.choice(CHAIN_RINGS)
            q = rng.randint(1, 3)
            els = [
                _random_vector(rng, ring, q).scale(ring.p ** rng.randrange(ring.r))
                for _ in range(rng.randint(1, q * ring.r))
            ]
            try:
                G = GroebnerBasis.from_elements(
                    [v for v in els if not v.is_zero()], rng.choice((TOP, POT))
                )
            except (ValidationFailed, ZeroVector):
                continue
            ref = _verdict(_reference_build_p_basis, G)
            assert _verdict(build_p_basis, G) == ref
            kind = ref if isinstance(ref, str) else "accept"
            kind = "digit" if "digit combination" in kind else kind
            seen[kind] = seen.get(kind, 0) + 1
        assert set(seen) == {
            "accept",
            "digit",
            "ValidationFailed: p times the last vector is nonzero",
        }
        assert min(seen.values()) >= 20

    def test_p_times_last_vector_nonzero(self):
        G = GroebnerBasis.from_elements([vec(Z4, "[2x+1]")], TOP)
        with pytest.raises(ValidationFailed, match="p times the last vector is nonzero"):
            build_p_basis(G)

    def test_chain_end_not_a_digit_combination(self):
        G = GroebnerBasis.from_elements([vec(Z4, "[x, 1]"), vec(Z4, "[2, 0]")], TOP)
        with pytest.raises(
            ValidationFailed,
            match=r"p \* vector 0 is not a digit combination of the later vectors",
        ):
            build_p_basis(G)


def _unimodular_generators(ring, rng):
    """Rows of a random elementary-operation product: a basis of the full module."""
    one = Poly.constant(ring, 1)
    rows = [
        PolyVec.from_components(ring, [one, Poly.zero(ring)]),
        PolyVec.from_components(ring, [Poly.zero(ring), one]),
    ]
    for _ in range(rng.randrange(2, 5)):
        i = rng.randrange(2)
        j = 1 - i
        a = Poly(ring, [rng.randrange(ring.modulus) for _ in range(rng.randrange(1, 4))])
        rows[i] = rows[i] + rows[j].poly_mul(a)
        u = rng.choice([c for c in range(1, ring.modulus) if ring.is_unit(c)])
        rows[j] = rows[j].scale(u)
    return rows


class TestPDim:
    def test_known_module_both_orders(self):
        assert p_dim(build_p_basis(z9a_top_basis())) == 4
        assert p_dim(build_p_basis(z9a_pot_basis())) == 4

    def test_free_rank_two_modules(self):
        rng = random.Random(20)
        for ring in (Z4, Z9, Z5):
            for _ in range(5):
                gens = _unimodular_generators(ring, rng)
                dims = {
                    p_dim(build_p_basis(buchberger(gens, order)))
                    for order in (TOP, POT)
                }
                assert dims == {2 * ring.r}

    def test_free_rank_one_modules(self):
        rng = random.Random(21)
        for ring in (Z4, Z9):
            for _ in range(5):
                coeffs = [rng.randrange(ring.modulus) for _ in range(rng.randrange(4))]
                u = rng.choice([c for c in range(1, ring.modulus) if ring.is_unit(c)])
                gen = PolyVec.from_components(ring, [Poly(ring, coeffs + [u])])
                for order in (TOP, POT):
                    assert p_dim(build_p_basis(buchberger([gen], order))) == ring.r


class TestPRepresent:
    def test_basis_vector_is_an_indicator(self):
        basis = build_p_basis(z9a_top_basis())
        digits = p_represent(basis.vectors[2], basis)
        assert [str(d) for d in digits] == ["0", "0", "1", "0"]

    def test_known_combination(self):
        basis = build_p_basis(z9a_top_basis())
        f = basis.vectors[0] + basis.vectors[2].term_mul(2, 1)
        digits = p_represent(f, basis)
        assert [str(d) for d in digits] == ["1", "0", "2x", "0"]

    def test_not_in_module(self):
        basis = build_p_basis(z9a_top_basis())
        with pytest.raises(NotInModule):
            p_represent(vec(Z9, "[1, 0]"), basis)

    def test_round_trip_random_digit_tuples(self):
        rng = random.Random(31)
        for basis in (build_p_basis(z9a_top_basis()), build_p_basis(z9a_pot_basis())):
            for _ in range(50):
                coeffs = [
                    Poly(basis.ring, [rng.randrange(3) for _ in range(rng.randrange(4))])
                    for _ in basis.vectors
                ]
                if all(a.is_zero() for a in coeffs):
                    continue
                f = PolyVec.zero(basis.ring, 2)
                for a, v in zip(coeffs, basis.vectors):
                    f = f + v.poly_mul(a)
                assert list(p_represent(f, basis)) == coeffs

    def test_full_ring_coefficients_are_canonicalized(self):
        # an input built with non-digit coefficients still gets digit output
        basis = build_p_basis(z9a_pot_basis())
        f = basis.vectors[0].scale(5)  # 5 = 2 + 1*3: digits (2, 1) across v1, v2=3*v1
        digits = p_represent(f, basis)
        assert [str(d) for d in digits] == ["2", "1", "0", "0"]


REPRESENT_RINGS = (Z4, Zpr(2, 3), Z9, Zpr(5, 2), Zpr(3, 3), Zpr(2, 8))


def _represent_bases(rng):
    """p-bases of seeded q = 1-4 modules under TOP and POT, and of interpolation modules."""
    for ring in REPRESENT_RINGS:
        for q in range(1, 5):
            for order in (TOP, POT):
                for _ in range(2):
                    gens = [_random_vector(rng, ring, q) for _ in range(rng.randint(1, 3))]
                    yield build_p_basis(buchberger(gens, order))
        for n in (3, 6, 9):
            seq = tuple(rng.randrange(ring.modulus) for _ in range(n))
            gens = list(build_module(SequenceInput(ring, seq)))
            for order in (TOP, POT):
                yield build_p_basis(buchberger(gens, order))


def _digits_or_not(represent, f, vectors, order):
    try:
        return represent(f, vectors, order)
    except NotInModule:
        return "NotInModule"


class TestRepresentByKey:
    """`_represent`'s (position, order) lookup against the scan it replaced.

    Over Z_4, Z_8, Z_9, Z_25, Z_27 and Z_256, a random digit combination of
    a p-basis round-trips to its digits under both, and the same vector plus
    one random term gets equal digits from both or NotInModule from both.
    Looking up (position, order + 1), or not checking that the vector found
    divides the lead, fails here.
    """

    def test_lookup_equals_the_scan(self):
        rng = random.Random(2001)
        seen = Counter()
        for basis in _represent_bases(rng):
            ring, order, vectors = basis.ring, basis.order, basis.vectors
            q = vectors[0].q
            top = max(v.deg(order) for v in vectors) + 4
            for _ in range(16):
                coeffs = tuple(
                    Poly(ring, [rng.randrange(ring.p) for _ in range(rng.randrange(4))])
                    for _ in vectors
                )
                f = combine(coeffs, vectors)
                assert _represent(f, vectors, order) == coeffs
                assert _reference_represent(f, vectors, order) == coeffs
                term = Monomial(rng.randrange(top), rng.randint(1, q))
                g = f + PolyVec(ring, q, {term: rng.randrange(1, ring.modulus)})
                got = _digits_or_not(_represent, g, vectors, order)
                assert got == _digits_or_not(_reference_represent, g, vectors, order)
                seen["rejected" if got == "NotInModule" else "represented"] += 1
        assert sum(seen.values()) >= 2000 and min(seen.values()) >= 200, seen

    def test_repeated_position_and_order_is_not_a_p_basis(self):
        B = build_p_basis(buchberger(parse_matrix(Z9, "[x^2+1, 3x]\n[3, x+2]\n"), TOP))
        twice = PBasis(B.order, B.vectors + (B.vectors[0],), B.provenance + ((0, 0),), B.betas)
        with pytest.raises(ValidationFailed, match="^vectors 0 and 4 share lpos and ord$"):
            p_represent(B.vectors[0], twice)

    def test_inexact_expansion_raises(self, monkeypatch):
        basis = build_p_basis(z9a_top_basis())
        f = basis.vectors[0]
        monkeypatch.setattr(pbasis, "combine", lambda coeffs, vectors: f.scale(2))
        with pytest.raises(ValidationFailed, match="inexact"):
            p_represent(f, basis)


class TestCheckPPlm:
    def test_known_p_bases_pass(self):
        for basis in (build_p_basis(z9a_top_basis()), build_p_basis(z9a_pot_basis())):
            report = check_p_plm(basis, trials=500, seed=5)
            assert report.passed

    def test_dependent_sequence_fails(self):
        v = vec(Z4, "[2x]")
        fake = PBasis(TOP, (v, v), ((0, 0), (1, 0)), (1, 1))
        report = check_p_plm(fake, trials=500, seed=2)
        assert not report.passed
        assert report.counterexample is not None
        assert str(report) == (
            "FAIL after 6 trials (seed 2): lm Monomial(alpha=3, pos=1) != predicted "
            "Monomial(alpha=4, pos=1) [x^3+x+1; x^3+x^2+x+1]"
        )

    def test_naive_p_power_expansion_fails_under_top(self):
        # (s1, p*s1, s2, p*s2) spans the module but is not a TOP p-basis:
        # s1 and s2 share leading position and order, so leading terms can
        # cancel (e.g. x*s1 + s2 drops from degree 6 to degree 5)
        from pgroebner import build_module, Monomial, SequenceInput

        s1, s2 = build_module(SequenceInput(Z9, SEQ_Z9A))
        raw = PBasis(TOP, (s1, s1.scale(3), s2, s2.scale(3)), ((0, 0), (0, 1), (1, 0), (1, 1)), (2, 2))
        witness = s1.term_mul(1, 1) + s2
        assert TOP.compare(witness.lm(TOP), Monomial(6, 2)) < 0
        report = check_p_plm(raw, trials=500, seed=4)
        assert not report.passed
        assert str(report) == (
            "FAIL after 14 trials (seed 4): lm Monomial(alpha=7, pos=2) != predicted "
            "Monomial(alpha=8, pos=2) [x^3+2x^2+2; 2x^3+2x^2+2x+2; x^2+x; 2x^2+1]"
        )

    def test_single_vector_field_case(self):
        v = vec(Z5, "[x^2+1, 3x]")
        basis = PBasis(TOP, (v,), ((0, 0),), (1,))
        assert check_p_plm(basis, trials=300, seed=8).passed


def test_listing_format_has_sidecar_header():
    text = format_p_basis(build_p_basis(z9a_pot_basis()))
    lines = text.splitlines()
    assert lines[0] == "# betas=(2,2) N=4 order=POT"
    assert lines[1] == "[1, 8x^5+5x^4+5x^3+2x^2+2x]"
    assert len(lines) == 5
