"""Groebner reduction, completion, and minimalization over Z_{p^r}[x]^q.

Over Z_{p^r} the leading coefficients are not always invertible, so the
classic completion loop is extended in two ways:

* an S-pair is formed for every two elements with the same leading
  position, shifting both to the lcm degree and scaling both leading
  coefficients to p^max(r-ord1, r-ord2);
* every element g whose leading coefficient is a zero divisor contributes
  an annihilator pair p^ord(g) * g, which must also reduce to zero.

A leading term c*X is cancellable by a reducer g with lm(g) dividing X
exactly when ord(g) >= ord(c), i.e. when c lies in the ideal generated by
lc(g).  Reduction steps always cancel the whole leading term, so the
leading monomial strictly decreases (asserted on every step).

All computations are deterministic: pairs are processed smallest lcm
monomial first with FIFO tie-breaks, reducers are chosen largest leading
monomial first with index tie-breaks, quotients use the canonical digit
representative, and S-vectors are oriented newer-minus-older.  Finished
bases are normalized so each leading coefficient is exactly p^(r-ord), and
tail terms covered by a unit-leading-coefficient element are cancelled
(those cancellations have unique quotients, so this is a canonical step;
full tail reduction is deliberately not performed).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IterationLimitExceeded,
    MixedRings,
    NotReducible,
    RingNotField,
    ValidationFailed,
    ZeroVector,
)
from .polyvec import Monomial, MonomialOrder, Poly, PolyVec, combine
from .ring import Zpr

DEFAULT_MAX_STEPS = 10**6


@dataclass(frozen=True)
class LeadData:
    """Leading data of one basis element under a fixed order."""

    lm: Monomial
    lc: int
    lpos: int
    deg: int
    ord: int


def lead_data(f: PolyVec, order: MonomialOrder) -> LeadData:
    c, m = f.lt(order)
    return LeadData(lm=m, lc=c, lpos=m.pos, deg=m.alpha, ord=f.ring.ord(c))


def normalize_lc(f: PolyVec, order: MonomialOrder) -> PolyVec:
    """Scale f by a unit so lc(f) becomes exactly p^(r - ord(f))."""
    ring = f.ring
    u = ring.unit_part(f.lc(order))
    if u == 1:
        return f
    return f.scale(ring.inv(u))


def _quotient(ring: Zpr, target: int, by: int) -> int:
    """Canonical c with c * by == target; requires vp(by) <= vp(target), target != 0."""
    vt, vb = ring.vp(target), ring.vp(by)
    assert vb <= vt < ring.r
    c = ring.mul(ring.unit_part(target), ring.inv(ring.unit_part(by))) * ring.p ** (vt - vb)
    return c % ring.p ** (ring.r - vb)


def _pick_reducer(
    mono: Monomial, min_ord: int, reducers: list[PolyVec], order: MonomialOrder
) -> PolyVec | None:
    """Largest-lm reducer whose lm divides mono and whose ord is >= min_ord; ties by index."""
    best = best_key = None
    for g in reducers:
        if g.is_zero():
            raise ZeroVector("reducers must be nonzero")
        gm = g.lm(order)
        if gm.divides(mono) and g.ring.ord(g.terms[gm]) >= min_ord:
            key = order.key(gm)
            if best_key is None or key > best_key:  # strict, so the first index wins ties
                best, best_key = g, key
    return best


def reduce_step(f: PolyVec, F: list[PolyVec], order: MonomialOrder) -> PolyVec:
    """One full cancellation of lt(f) by an element of F.

    Returns h with h = 0 or lm(h) < lm(f); raises NotReducible when no
    element of F can cancel the leading term (f is minimal with respect
    to F).
    """
    if f.is_zero():
        raise ZeroVector("cannot reduce the zero vector")
    c, m = f.lt(order)
    g = _pick_reducer(m, f.ring.ord(c), F, order)
    if g is None:
        raise NotReducible("leading term not cancellable by the given reducers")
    gc, gm = g.lt(order)
    h = f - g.term_mul(_quotient(f.ring, c, gc), m.alpha - gm.alpha)
    assert h.is_zero() or order.compare(h.lm(order), m) < 0
    return h


def normal_form(f: PolyVec, F: list[PolyVec], order: MonomialOrder) -> PolyVec:
    """Iterate reduce_step until the result is zero or minimal with respect to F."""
    while not f.is_zero():
        try:
            f = reduce_step(f, F, order)
        except NotReducible:
            break
    return f


def _s_vector(older: PolyVec, newer: PolyVec, order: MonomialOrder) -> PolyVec:
    """S-pair vector for two elements with equal leading position."""
    ring = older.ring
    c1, m1 = older.lt(order)
    c2, m2 = newer.lt(order)
    assert m1.pos == m2.pos
    lcm_deg = max(m1.alpha, m2.alpha)
    target = ring.p ** max(ring.vp(c1), ring.vp(c2))
    t1 = older.term_mul(_quotient(ring, target, c1), lcm_deg - m1.alpha)
    t2 = newer.term_mul(_quotient(ring, target, c2), lcm_deg - m2.alpha)
    return t2 - t1


def _annihilator_vector(g: PolyVec, order: MonomialOrder) -> PolyVec:
    """p^ord(g) * g: the smallest p-power multiple that kills the leading term."""
    return g.scale(g.ring.p ** g.ord(order))


def _covers(h: LeadData, g: LeadData) -> bool:
    """True when lt(g) is cancellable by h alone."""
    return h.lm.divides(g.lm) and h.ord >= g.ord


def _minimalize_elements(
    elements: list[PolyVec], order: MonomialOrder
) -> list[PolyVec]:
    """Drop elements whose leading terms are covered by the kept ones.

    Scanned in ascending leading-monomial order (higher element order first
    on ties) so every potential cover is decided before the elements it
    covers.  Returns the kept elements sorted descending by lm.
    """
    leads = [lead_data(g, order) for g in elements]
    idx = sorted(
        range(len(elements)),
        key=lambda i: (order.key(leads[i].lm), -leads[i].ord, i),
    )
    kept: list[int] = []
    for i in idx:
        if not any(_covers(leads[j], leads[i]) for j in kept):
            kept.append(i)
    kept.sort(key=lambda i: order.key(leads[i].lm), reverse=True)
    return [elements[i] for i in kept]


def _cancel_unit_tails(
    elements: list[PolyVec], order: MonomialOrder
) -> list[PolyVec]:
    """Cancel tail terms covered by unit-lc elements (unique quotients only).

    Elements arrive sorted descending by lm and are processed smallest lm
    first, so reducers are already in canonical form when used.
    """
    ring = elements[0].ring
    out = list(elements)
    for i in range(len(out) - 1, -1, -1):
        g = out[i]
        others = out[:i] + out[i + 1 :]
        lead = g.lm(order)
        while True:
            for mono, c in g.sorted_terms(order):
                h = None if mono == lead else _pick_reducer(mono, ring.r, others, order)
                if h is not None:
                    # lc(h) == 1 after normalization, so the quotient is c itself
                    g = g - h.term_mul(c, mono.alpha - h.lm(order).alpha)
                    break
            else:  # no tail term is covered any more
                break
        out[i] = g
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A sorted minimal Groebner basis with cached leading data.

    Elements are sorted strictly descending by leading monomial, leading
    coefficients are normalized to exactly p^(r-ord), and the structural
    invariants (distinct leading monomials, pairwise minimality, same
    position degree/order monotonicity, size <= q*r) are verified at
    construction.
    """

    order: MonomialOrder
    elements: tuple[PolyVec, ...]
    leads: tuple[LeadData, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "leads", tuple(lead_data(g, self.order) for g in self.elements)
        )
        self.validate()

    @classmethod
    def from_elements(
        cls, elements: list[PolyVec], order: MonomialOrder
    ) -> "GroebnerBasis":
        """Sort, normalize, canonicalize, and validate a minimal basis."""
        if not elements:
            raise ZeroVector("a Groebner basis must contain at least one element")
        normalized = [normalize_lc(g, order) for g in elements]
        normalized.sort(key=lambda g: order.key(g.lm(order)), reverse=True)
        return cls(order, tuple(_cancel_unit_tails(normalized, order)))

    @property
    def ring(self) -> Zpr:
        return self.elements[0].ring

    @property
    def q(self) -> int:
        return self.elements[0].q

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> PolyVec:
        return self.elements[i]

    def validate(self) -> None:
        """Raise ValidationFailed unless every structural invariant holds."""
        if not self.elements:
            raise ValidationFailed("empty basis")
        ring, q = self.ring, self.q
        for g in self.elements:
            if g.is_zero():
                raise ValidationFailed("zero element in basis")
            if g.ring != ring or g.q != q:
                raise ValidationFailed("mixed rings or dimensions in basis")
        for i, di in enumerate(self.leads):
            if ring.unit_part(di.lc) != 1:
                raise ValidationFailed(f"element {i} has unnormalized lc {di.lc}")
            for j, dj in enumerate(self.leads):
                if j != i and _covers(dj, di):
                    raise ValidationFailed(f"element {i} is reducible by element {j}")
            if i + 1 < len(self.leads):
                nxt = self.leads[i + 1]
                if self.order.compare(di.lm, nxt.lm) <= 0:
                    raise ValidationFailed("elements not strictly descending by lm")
            for j in range(i):
                dj = self.leads[j]
                if dj.lpos == di.lpos and not (dj.deg > di.deg and dj.ord > di.ord):
                    raise ValidationFailed(
                        f"same-position monotonicity violated at {j}, {i}"
                    )
        if len(self.elements) > q * ring.r:
            raise ValidationFailed(f"basis has {len(self.elements)} > q*r elements")


def _check_inputs(generators: list[PolyVec]) -> tuple[Zpr, int]:
    if not generators:
        raise ZeroVector("need at least one generator")
    ring, q = generators[0].ring, generators[0].q
    for g in generators:
        if g.is_zero():
            raise ZeroVector("generators must be nonzero")
        if g.ring != ring:
            raise MixedRings("generators from different rings")
        if g.q != q:
            raise DimensionMismatch("generators with different ambient dimensions")
    return ring, q


def buchberger(
    generators: list[PolyVec],
    order: MonomialOrder,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> GroebnerBasis:
    """Minimal Groebner basis of the module spanned by the generators.

    Completion processes S-pairs for equal leading positions and
    annihilator pairs for zero-divisor leading coefficients until every
    pair reduces to zero, then minimalizes.  Deterministic: identical
    inputs yield identical bases.  max_steps caps the number of pair
    reductions; exceeding it raises IterationLimitExceeded and indicates
    a bug rather than expected behavior.
    """
    ring, _ = _check_inputs(generators)
    basis: list[PolyVec] = []
    heap: list[tuple[tuple[int, int], int, int, int]] = []
    seq = itertools.count()

    def add_element(g: PolyVec) -> None:
        g = normalize_lc(g, order)
        k = len(basis)
        basis.append(g)
        km = g.lm(order)
        for i in range(k):
            im = basis[i].lm(order)
            if im.pos == km.pos:
                lcm = Monomial(max(im.alpha, km.alpha), km.pos)
                heapq.heappush(heap, (order.key(lcm), next(seq), i, k))
        if g.ord(order) < ring.r:
            # annihilator pair, encoded with j == -1
            heapq.heappush(heap, (order.key(km), next(seq), k, -1))

    for g in generators:
        add_element(g)

    steps = 0
    while heap:
        steps += 1
        if steps > max_steps:
            raise IterationLimitExceeded(f"exceeded {max_steps} pair reductions")
        _, _, i, j = heapq.heappop(heap)
        if j == -1:
            vec = _annihilator_vector(basis[i], order)
        else:
            vec = _s_vector(basis[i], basis[j], order)
        if vec.is_zero():
            continue
        h = normal_form(vec, basis, order)
        if not h.is_zero():
            add_element(h)

    return GroebnerBasis.from_elements(_minimalize_elements(basis, order), order)


def minimalize(G: list[PolyVec], order: MonomialOrder) -> GroebnerBasis:
    """Minimalize a Groebner basis: drop covered elements, sort, normalize."""
    _check_inputs(G)
    return GroebnerBasis.from_elements(_minimalize_elements(list(G), order), order)


def is_groebner(G: list[PolyVec], order: MonomialOrder) -> bool:
    """Buchberger criterion: every S-pair and annihilator pair reduces to zero."""
    ring, _ = _check_inputs(G)
    for i, g in enumerate(G):
        if g.ord(order) < ring.r:
            if not normal_form(_annihilator_vector(g, order), G, order).is_zero():
                return False
        for j in range(i + 1, len(G)):
            if g.lpos(order) != G[j].lpos(order):
                continue
            vec = _s_vector(g, G[j], order)
            if not normal_form(vec, G, order).is_zero():
                return False
    return True


def module_equal(A: list[PolyVec], B: list[PolyVec], order: MonomialOrder) -> bool:
    """Mutual zero reduction; both argument lists must be Groebner bases."""
    return all(normal_form(a, B, order).is_zero() for a in A) and all(
        normal_form(b, A, order).is_zero() for b in B
    )


@dataclass(frozen=True)
class PlmReport:
    """Outcome of a randomized predictable-leading-monomial check."""

    passed: bool
    trials: int
    seed: int
    counterexample: tuple[Poly, ...] | None = None
    detail: str = ""

    def __str__(self) -> str:
        if self.passed:
            return f"pass ({self.trials} trials, seed {self.seed})"
        witness = "; ".join(str(a) for a in self.counterexample or ())
        return f"FAIL after {self.trials} trials (seed {self.seed}): {self.detail} [{witness}]"


def _sample_plm(
    vectors: Sequence[PolyVec],
    order: MonomialOrder,
    trials: int,
    seed: int,
    deg_bound: int,
    zero_fails: bool,
) -> PlmReport:
    """Sample tuples a_i of digit polynomials and test lm(sum a_i v_i) against
    its prediction, the largest lm(a_i)*lm(v_i) over nonzero a_i.

    A nontrivial tuple whose combination is zero is a failure when
    zero_fails (p-linear independence) and is skipped otherwise.
    """
    ring = vectors[0].ring
    rng = random.Random(seed)
    for t in range(1, trials + 1):
        coeffs = [
            Poly(ring, [rng.randrange(ring.p) for _ in range(deg_bound + 1)])
            for _ in vectors
        ]
        if all(a.is_zero() for a in coeffs):
            continue
        f = combine(coeffs, vectors)
        if f.is_zero():
            if not zero_fails:
                continue
            detail = "nontrivial digit combination is zero"
        else:
            expected = order.max(
                v.lm(order).shifted(a.degree)
                for a, v in zip(coeffs, vectors)
                if not a.is_zero()
            )
            if f.lm(order) == expected:
                continue
            detail = f"lm {f.lm(order)} != predicted {expected}"
        return PlmReport(
            passed=False, trials=t, seed=seed, counterexample=tuple(coeffs), detail=detail
        )
    return PlmReport(passed=True, trials=trials, seed=seed)


def check_plm(
    F: list[PolyVec],
    order: MonomialOrder,
    trials: int = 500,
    seed: int = 0,
    deg_bound: int = 3,
) -> PlmReport:
    """Randomized check of the predictable leading monomial property.

    Field case only (r = 1): samples coefficient tuples a_i in Z_p[x] of
    degree <= deg_bound, forms f = sum a_i f_i, and whenever f != 0 checks
    lm(f) == max over nonzero a_i of lm(a_i)*lm(f_i).
    """
    ring, _ = _check_inputs(F)
    if ring.r != 1:
        raise RingNotField("the PLM property check is defined for r = 1 only")
    return _sample_plm(F, order, trials, seed, deg_bound, zero_fails=False)
