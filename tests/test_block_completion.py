"""The block-level completion against the PolyVec-level loop it replaced.

`buchberger` builds S-vectors and annihilator vectors from the blocks and
leading data it keeps per element, `reduce_step` reads a normalized
reducer's quotient off its lc, and `build_module` packs its two vectors
directly.  The paths they replaced are kept here as references: over
Z_4 to Z_256 and r = 1 rings up to Z_65521, q = 1-4, TOP and POT, with
degrees past one block, both give the same elements from the same pushed
heap entries, `normal_form` calls and `reduce_step` calls, and every lead
the new path caches equals a fresh scan.
"""

import heapq
import itertools
import random

from pgroebner import (
    POT,
    TOP,
    GroebnerBasis,
    IterationLimitExceeded,
    Monomial,
    NotReducible,
    Poly,
    PolyVec,
    SequenceInput,
    Zpr,
    buchberger,
    build_module,
    groebner,
)
from pgroebner.groebner import (
    DEFAULT_MAX_STEPS,
    _check_inputs,
    _indexed,
    _minimalize_elements,
    _partners,
    _quotient,
    _ReducerIndex,
)
from pgroebner.polyvec import BLOCK

CHAIN_RINGS = (Zpr(2, 2), Zpr(2, 3), Zpr(3, 2), Zpr(3, 3), Zpr(3, 4), Zpr(2, 8))
FIELDS = (Zpr(2, 1), Zpr(3, 1), Zpr(7, 1), Zpr(251, 1), Zpr(65521, 1))
RINGS = CHAIN_RINGS + FIELDS


class _Log:
    """What one completion pushes, and the vectors its reductions start from and make."""

    def __init__(self):
        self.pushed, self.normal_forms, self.steps = [], [], []


def _reference_reduce_step(f, F, order, log):
    """`reduce_step` as it was: the quotient by `_quotient`, the update by `sub_term_mul`."""
    c, m, o = f.lead(order)
    g = _indexed(F, order).pick(m, o)
    if g is None:
        raise NotReducible("leading term not cancellable by the given reducers")
    gc, gm, go = g.lead(order)
    h = f.sub_term_mul(g, _quotient(f.ring, c, gc, f.ring.r - go), m.alpha - gm.alpha)
    assert h.is_zero() or order.compare(h.lm(order), m) < 0
    log.steps.append((f, h))
    return h


def _reference_normal_form(f, F, order, log):
    """`normal_form` as it was: reduce until `reduce_step` raises NotReducible."""
    log.normal_forms.append(f)
    while not f.is_zero():
        try:
            f = _reference_reduce_step(f, F, order, log)
        except NotReducible:
            break
    return f


def _reference_s_vector(older, newer, order):
    """The S-vector as it was built: each lc scaled by `_quotient` to p^(r - min ord)."""
    ring = older.ring
    c1, m1, o1 = older.lead(order)
    c2, m2, o2 = newer.lead(order)
    assert m1.pos == m2.pos
    lcm_deg = max(m1.alpha, m2.alpha)
    r = ring.r
    target = ring.p ** (r - min(o1, o2))
    t2 = newer.term_mul(_quotient(ring, target, c2, r - o2), lcm_deg - m2.alpha)
    return t2.sub_term_mul(older, _quotient(ring, target, c1, r - o1), lcm_deg - m1.alpha)


def _reference_buchberger(generators, order, log, max_steps=DEFAULT_MAX_STEPS):
    """The PolyVec-level loop `buchberger` replaced, kept as its reference.

    Each element is normalized by `scale`, each pair vector is built by
    `_reference_s_vector` or `scale` from the element objects, and each is reduced
    by the reference `normal_form` through the reference `reduce_step`.
    """
    ring, _ = _check_inputs(generators)
    basis = _ReducerIndex(order)
    heap = []
    queued = itertools.count()

    def push(mono, k, i):
        if next(queued) >= max_steps:
            raise IterationLimitExceeded(f"exceeded {max_steps} queued pairs")
        log.pushed.append((order.key(mono), k, i))
        heapq.heappush(heap, log.pushed[-1])

    def add_element(g):
        c, _, o = g.lead(order)
        u = c // ring.p ** (ring.r - o)
        g = g if u == 1 else g.scale(pow(u, -1, ring.modulus))
        k = len(basis)
        _, km, k_ord = g.lead(order)
        alpha, pos = km
        partners = _partners(basis, alpha, pos, k_ord)
        basis.append(g)
        for neg, i, _ in partners:
            push(Monomial(max(-neg, alpha), pos), k, i)
        if k_ord < ring.r:
            push(km, k, k)

    for g in generators:
        add_element(g)
    while heap:
        _, k, i = heapq.heappop(heap)
        if i == k:
            vec = basis[k].scale(ring.p ** basis[k].ord(order))
        else:
            vec = _reference_s_vector(basis[i], basis[k], order)
        if vec.is_zero():
            continue
        h = _reference_normal_form(vec, basis, order, log)
        if not h.is_zero():
            add_element(h)
    return GroebnerBasis.from_elements(_minimalize_elements(basis, order), order)


def _generators(rng, ring, q, top):
    """1-4 vectors of 1-4 terms of degree <= top, with repeated leads: copies and p-multiples."""
    out, size = [], rng.randint(1, 4)
    while len(out) < size:
        if out and rng.randrange(4) == 0:
            out.append(rng.choice(out).scale(ring.p if rng.randrange(2) else 1))
        else:
            out.append(PolyVec(ring, q, {
                Monomial(rng.randrange(top + 1), rng.randint(1, q)):
                    rng.randrange(1, ring.modulus) * ring.p ** rng.randrange(ring.r)
                for _ in range(rng.randint(1, 4))
            }))
        if out[-1].is_zero():
            out.pop()
    return out


def _cases():
    """Seeded modules over every ring, q = 1-4, TOP and POT, one in three with
    degrees up to 600; then interpolation modules, some of n > BLOCK."""
    rng = random.Random(2301)
    cases = []
    for k in range(2000):
        ring, q = RINGS[k % len(RINGS)], 1 + k // len(RINGS) % 4
        top = 600 if k % 3 == 2 else 5
        cases.append((_generators(rng, ring, q, top), (TOP, POT)[k // 2 % 2]))
    for ring in RINGS:
        for n in (1, 4, 13, 40) + ((260,) if ring.r == 1 else ()):
            S = SequenceInput(ring, tuple(rng.randrange(ring.modulus) for _ in range(n)))
            cases += [(list(build_module(S)), order) for order in (TOP, POT)]
    return cases


def _cached(v, order):
    cached, lead = v._cache
    return lead if cached is order else None


class TestBlockCompletion:
    def test_completion_equals_the_polyvec_loop(self, monkeypatch):
        cases = _cases()
        want = []
        for gens, order in cases:
            log = _Log()
            want.append((_reference_buchberger(gens, order, log).elements, log))

        log, bases = _Log(), []
        push, nf, step = heapq.heappush, groebner.normal_form, groebner.reduce_step

        def logged_normal_form(f, F, order):
            log.normal_forms.append(f)
            bases.append(F)
            return nf(f, F, order)

        def logged_reduce_step(f, F, order, **by):
            h = step(f, F, order, **by)
            # the lead is cached as the step makes h, and it is the one a scan finds
            assert h.is_zero() or _cached(h, order) == h._scan(order)
            log.steps.append((f, h))
            return h

        monkeypatch.setattr(groebner.heapq, "heappush", lambda h, x: (log.pushed.append(x), push(h, x)))
        monkeypatch.setattr(groebner, "normal_form", logged_normal_form)
        monkeypatch.setattr(groebner, "reduce_step", logged_reduce_step)
        # wide: the completions that reduce a vector of more than one block
        seen = {"steps": 0, "s_pairs": 0, "wide": 0}
        for k, ((gens, order), (elements, ref)) in enumerate(zip(cases, want)):
            log.__init__()
            bases.clear()
            assert buchberger(gens, order).elements == elements, k
            assert log.pushed == ref.pushed, k
            assert log.normal_forms == ref.normal_forms, k
            assert log.steps == ref.steps, k
            for F in bases[-1:]:
                assert all(_cached(g, order) == g._scan(order) for g in F), k
            seen["steps"] += len(log.steps)
            seen["s_pairs"] += sum(newer != older for _, newer, older in log.pushed)
            seen["wide"] += any(len(f._blocks) > 1 for f, _ in log.steps)
        assert len(cases) >= 2000
        assert seen["steps"] > 30000 and seen["s_pairs"] > 12000 and seen["wide"] > 250, seen


def _reference_build_module(S):
    """`build_module` as it was: through `Poly` and `from_components`."""
    ring, n = S.ring, S.n
    coeffs = [0] * (n + 1)
    for i, v in enumerate(S.values):
        coeffs[n - i] = v
    s_poly = Poly(ring, coeffs)
    s1 = PolyVec.from_components(ring, [Poly.constant(ring, 1), -s_poly])
    s2 = PolyVec.from_components(ring, [Poly.zero(ring), Poly.monomial(ring, 1, n + 1)])
    return s1, s2


class TestPackedModule:
    def test_packed_generators_equal_the_components(self):
        rng = random.Random(2302)
        for ring in RINGS:
            for n in (1, 2, 3, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 600):
                sequences = [
                    tuple(rng.randrange(ring.modulus) for _ in range(n)),
                    (0,) * n,
                    # zeros at the top and at a block boundary
                    (0,) + tuple(rng.randrange(ring.modulus) for _ in range(n - 1)),
                    tuple(0 if k % BLOCK < 3 else rng.randrange(ring.modulus) for k in range(n)),
                ]
                for values in sequences:
                    S = SequenceInput(ring, values)
                    got, want = build_module(S), _reference_build_module(S)
                    assert got == want, (ring, values)
                    assert [str(v) for v in got] == [str(v) for v in want]
