"""Groebner reduction, completion, and minimalization over Z_{p^r}[x]^q.

Over Z_{p^r} the leading coefficients are not always invertible, so the
classic completion loop is extended in two ways:

* S-pairs join elements with the same leading position, shifting both to
  the lcm degree and scaling both leading coefficients to
  p^max(r-ord1, r-ord2);
* every element g whose leading coefficient is a zero divisor contributes
  an annihilator pair p^ord(g) * g, which must also reduce to zero.

When an element k is added, its pairs with the earlier elements of its
position would pop in ascending (lcm degree, index) order.  Let first(j) be
the first earlier element in that order with ord >= j; k queues its pairs
with first(1), ..., first(ord k), each once.  Over a field every ord is 1,
so k forms one pair, with the earlier element i that minimizes
max(a_i, a_k), first index on ties (a_i = deg lm(g_i)): Gebauer-Moeller's
chain criterion (JSC 1988).  For r > 1 k queues at most r S-pairs: the
criterion carried to chain rings (cf. Norton-Salagean, 2001).  Sound: a
dropped pair (i, k) at X = x^A*e_P is not first(j) for j = min(ord i,
ord k), so t = first(j) pops before it, with ord t >= j and deg t <= A.
With lcs normalized to p-powers, S(i, k) = p^a*x^b*S(i, t) +
p^c*x^d*S(t, k) exactly, and both pairs are keyed below (i, k): (t, k) pops
first, and (i, t) has an lcm <= X and a newer index below k.  By induction
on the key every pair, dropped or not, annihilator pairs included, then has
a representation strictly below its lcm: Buchberger's criterion over a
chain ring.

A leading term c*X is cancellable by a reducer g with lm(g) dividing X
exactly when ord(g) >= ord(c), i.e. when c lies in the ideal generated by
lc(g).  Reduction steps always cancel the whole leading term, so the
leading monomial strictly decreases (asserted on every step).

All computations are deterministic: pairs are processed in ascending
(lcm monomial, newer index, older index), the annihilator pair of g_k
counting as (lm(g_k), k, k), reducers are chosen largest leading
monomial first with index tie-breaks, quotients use the canonical digit
representative, and S-vectors are oriented newer-minus-older.  Finished
bases are read by position: a minimal basis is a staircase there, degree and
ord rising together, so with each lc normalized to p^(r-ord) only the top
element can have lc 1; the tail terms it covers are cancelled in one pass
down each element (unique quotients, so a canonical step; full tail
reduction is not performed).

Reducers and pairs are read from one index, not found by scanning.  It
files each element, as it is appended, under (position, j) for every
j <= its ord.  A level lists them by descending degree, then index: the
reducer of x^alpha*e_pos at ord >= o is the first entry of level (pos, o)
from degree alpha down.  A stair keeps, in index order, only the elements
of degree below every one filed there before.  Only these can be first(j):
if an earlier element of ord >= j has degree <= deg i, its pair with k
pops before (i, k).  As pairs of degree <= deg k pop at lcm degree deg k,
by index, and the others by degree, first(j) is the earliest stair entry
of degree <= deg k, else the last one.  Each is one bisect.  The live
basis of a completion is its index; other callers index their list first.

The loop runs on blocks.  `buchberger` carries each element's blocks,
degree and ord (its lc is p^(r - ord) once normalized) and builds each
pair vector from them by `_pair_vector`, as `is_groebner` does over
normalized copies of its list; `normalize_lc` and `reduce_step` cache
the leads they know, and a normalized reducer's quotient is c // lc.
`normal_form`, `reduce_step`, the heap calls and `_partners` stay module
globals, called once per pair vector, step, push and element: the
benchmark's tracer counts at them (ROADMAP aim 4), and tests replace them.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import random
from collections import defaultdict
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
from .polyvec import (BLOCK, TOP, Monomial, MonomialOrder, Poly, PolyVec, _axpy, _Layout, _lane_top, _lead,
                      _top_slot, combine)
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
    c, m, o = f.lead(order)
    return LeadData(lm=m, lc=c, lpos=m.pos, deg=m.alpha, ord=o)


def normalize_lc(f: PolyVec, order: MonomialOrder) -> PolyVec:
    """Scale f by a unit so lc(f) becomes exactly p^(r - ord(f)); its lead stays cached."""
    ring = f.ring
    c, m, o = f.lead(order)
    pe = ring.p ** (ring.r - o)
    return f if c == pe else f.scale(pow(c // pe, -1, ring.modulus), order, (pe, m, o))


def _quotient(ring: Zpr, target: int, by: int, vb: int) -> int:
    """Canonical c with c * by == target, vb = vp(by); requires vb <= vp(target), target != 0.

    With by = u * p^vb, the solutions c form one residue class mod
    p^(r - vb): (target / p^vb) * u^-1.  Its least member is the answer.
    Callers pass vb as r - ord(by), which the lead cache already holds.
    """
    pv = ring.p ** vb
    m = ring.modulus // pv
    assert target % ring.modulus and not target % pv
    return target // pv * pow(by // pv, -1, m) % m


class _ReducerIndex(list):
    """Elements filed by (leading position, ord) under one order (see the
    module docstring): a live basis, or a list `_indexed` files.  `append`
    files each as (-deg, index, ord) in the sorted levels `pick` bisects and
    on the stairs `_partners` bisects.  Elements must only ever be appended.
    """

    def __init__(self, order: MonomialOrder) -> None:
        super().__init__()
        self.order = order
        self.levels: defaultdict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)
        self.stairs: defaultdict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)

    def append(self, g: PolyVec) -> None:
        _, (alpha, pos), o = g.lead(self.order)
        entry = (-alpha, len(self), o)
        for j in range(1, o + 1):
            bisect.insort(self.levels[pos, j], entry)
            stair = self.stairs[pos, j]
            # compare degrees only: an equal degree never joins the stair
            if not stair or stair[-1][0] < -alpha:
                stair.append(entry)
        super().append(g)

    def pick(self, mono: Monomial, min_ord: int) -> PolyVec | None:
        """Largest-lm element whose lm divides mono and whose ord is >= min_ord; ties by index.

        Every such lm shares mono's position, so the largest is the one of
        highest degree.  Every ord is at least 1, so level 1 holds them all.
        """
        alpha, pos = mono
        level = self.levels.get((pos, min_ord if min_ord > 1 else 1), ())
        # (-alpha,) sorts before every entry of degree alpha
        i = bisect.bisect_left(level, (-alpha,))
        return self[level[i][1]] if i < len(level) else None


def _indexed(F: list[PolyVec], order: MonomialOrder) -> _ReducerIndex:
    """F if it is an index for order, else a new index of F; a zero element raises ZeroVector."""
    if isinstance(F, _ReducerIndex) and F.order is order:
        return F
    index = _ReducerIndex(order)
    for g in F:
        index.append(g)
    return index


def reduce_step(
    f: PolyVec, F: list[PolyVec], order: MonomialOrder, *, by: PolyVec | None = None
) -> PolyVec:
    """One full cancellation of lt(f) by an element of F: by, if the caller has picked it.

    Returns h with h = 0 or lm(h) < lm(f), its lead cached; raises
    NotReducible when no element of F can cancel the leading term (f is
    minimal with respect to F), or when lt(by) does not divide lt(f).
    """
    if f.is_zero():
        raise ZeroVector("cannot reduce the zero vector")
    c, m, o = f.lead(order)
    g = _indexed(F, order).pick(m, o) if by is None else by
    if g is None:
        raise NotReducible("leading term not cancellable by the given reducers")
    gc, gm, go = g.lead(order)
    if gm.pos != m.pos or gm.alpha > m.alpha or go < o:
        raise NotReducible("the given reducer's leading term does not divide lt(f)")
    lay = f._lay
    if g._lay is not lay:
        f._check(g)
    # a normalized lc p^(r - go) divides the modulus, and c // gc is then the quotient
    quo = _quotient(f.ring, c, gc, f.ring.r - go) if lay.m % gc else c // gc
    blocks = _axpy(lay, f._blocks, g._blocks, lay.m - quo, m.alpha - gm.alpha)
    lead = _lead(lay, blocks, order) if blocks else None
    assert lead is None or order.key(lead[1]) < order.key(m)
    return f._like(blocks, order, lead)


def normal_form(f: PolyVec, F: list[PolyVec], order: MonomialOrder) -> PolyVec:
    """Iterate reduce_step until the result is zero or minimal with respect to F."""
    if not f.is_zero():
        F = _indexed(F, order)
    # until a lead that no element of F cancels (lead()[1:] is (lm, ord))
    while f._blocks and (g := F.pick(*f.lead(order)[1:])) is not None:
        f = reduce_step(f, F, order, by=g)
    return f


def _pair_vector(lay: _Layout, pw: list[int], older: tuple, newer: tuple) -> tuple[int, ...]:
    """The blocks of the pair vector of two elements at one leading position.

    Each is carried as (blocks, degree, ord), its lc normalized to p^(r - ord);
    pw[e] is p^e.  One element g gives p^ord(g) * g; two give the S-vector,
    each lc scaled to p^(r - min ord), newer minus older.
    """
    bk, ak, ok = newer
    if older is newer:
        return _axpy(lay, (), bk, pw[ok], 0)
    bi, ai, oi = older
    lcm, low = max(ai, ak), min(oi, ok)
    return _axpy(lay, _axpy(lay, (), bk, pw[ok - low], lcm - ak), bi, lay.m - pw[oi - low], lcm - ai)


def _minimalize_elements(elements: list[PolyVec], order: MonomialOrder) -> list[PolyVec]:
    """The elements that no kept one covers, in ascending lm order.

    h covers g when they share a position, deg h <= deg g and ord h >= ord g.
    In ascending lm order (higher ord first on ties, then by index: the sort
    is stable) every possible cover of g comes first, so a kept element
    covers g exactly when the highest ord kept at g's position is >= ord g.
    """
    best: dict[int, int] = {}  # position -> highest ord kept there
    kept = []
    for g in sorted(elements, key=lambda g: (order.key(g.lead(order)[1]), -g.lead(order)[2])):
        _, m, o = g.lead(order)
        if o > best.get(m.pos, 0):
            best[m.pos] = o
            kept.append(g)
    return kept


def _cancel_unit_tails(elements: list[PolyVec], order: MonomialOrder) -> list[PolyVec]:
    """Cancel tail terms covered by unit-lc elements (unique quotients only).

    Elements arrive sorted descending by lm and are processed smallest lm
    first: a unit covering a tail term Y of g has lm <= Y < lm(g), so the
    units before g, one per position, are all its reducers.  With one unit of
    lc 1 per position the result is unique (two would differ by a unit
    combination, whose leading term is covered), and one pass down g suffices:
    cancelling c*x^a*e_P by the unit h_P of degree d subtracts c*x^(a-d)*h_P,
    whose terms lie at or below x^a*e_P, as TOP and POT are compatible with
    multiplication by x.  No covered term appears above the one removed, and
    the lead never moves.  Under TOP, slot order, each step reads the top
    covered slot below the last (`_top_slot`, masks of each unit's lane from
    its degree up); under POT the unit positions g holds are visited in
    ascending order (`_held`), each read by `_lane_top` down to its unit's
    degree, and folded again only while unit positions lie after it.  Of two
    units at one position (a non-minimal list) the first is used.
    """
    lay, r = elements[0]._lay, elements[0].ring.r
    q, W, m, nb = lay.q, lay.W, lay.m, max(len(g._blocks) for g in elements)
    # position q's slots in a block; under TOP no step passes the top degree
    lane = lay.lane(elements[0]._blocks[-1] if order is TOP and nb == 1 else 1 << lay.bw - 1)
    masks, full, units, out = [0] * nb if order is TOP else [], 0, {}, []  # units: P -> (degree, unit)
    for g in reversed(elements):
        _, (alpha, pos), o = lead = g.lead(order)
        blocks, k = g._blocks, alpha * q + q - pos  # TOP: k is the last slot read, from the lead's
        while units and order is TOP and (top := _top_slot(lay, blocks, masks, k)):
            c, k = top
            d, h = units[q - k % q]
            blocks = _axpy(lay, blocks, h._blocks, m - c, k // q - d)
        held = _held(lay, blocks, full) if units and order is not TOP else 0
        while held:  # POT: the lowest position held, read down to its unit's degree
            d, h = units[P := q - (held.bit_length() - 1) // W]
            below = alpha if P == pos else len(blocks) * BLOCK
            while below > d and (top := _lane_top(lay, blocks, P, below)) and top[1] >= d:
                c, below = top
                blocks = _axpy(lay, blocks, h._blocks, m - c, below - d)
            held = (after := full & (1 << (q - P) * W) - 1) and _held(lay, blocks, full) & after
        g = g if blocks is g._blocks else g._like(blocks, order, lead)
        if o == r and pos not in units:
            units[pos] = (alpha, g)
            full |= lane << (q - pos) * W  # POT: the unit lanes at every degree
            for i in range(alpha // BLOCK, len(masks)):  # the lane from degree alpha up
                masks[i] |= lane >> (low := max(alpha - i * BLOCK, 0) * lay.dw) << low + (q - pos) * W
        out.append(g)
    return out[::-1]


def _held(lay: _Layout, blocks: tuple[int, ...], mask: int) -> int:
    """The slots of degree 0 of positions where the blocks ANDed with mask hold a term."""
    x, sh = 0, lay.dw
    for b in blocks:
        x |= b & mask
    while x >> sh:  # fold the degrees onto degree 0
        x, sh = x | x >> sh, 2 * sh
    return x & (1 << lay.dw) - 1


@dataclass(frozen=True)
class GroebnerBasis:
    """A sorted minimal Groebner basis with cached leading data.

    Construction checks that every leading coefficient is exactly p^(r-ord),
    that each position is a staircase (down the list, degree and ord both
    strictly fall) and that the leading monomials strictly descend.
    Distinct leading monomials, pairwise minimality and size <= q*r follow
    (see `validate`).
    """

    order: MonomialOrder
    elements: tuple[PolyVec, ...]
    leads: tuple[LeadData, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_elements()  # a zero element has no leading data to compute
        object.__setattr__(
            self, "leads", tuple(lead_data(g, self.order) for g in self.elements)
        )
        self._check_leads()

    @classmethod
    def from_elements(cls, elements: list[PolyVec], order: MonomialOrder) -> "GroebnerBasis":
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

    def _check_elements(self) -> None:
        if not self.elements:
            raise ValidationFailed("empty basis")
        ring, q = self.ring, self.q
        for g in self.elements:
            if g.is_zero():
                raise ValidationFailed("zero element in basis")
            if g.ring != ring or g.q != q:
                raise ValidationFailed("mixed rings or dimensions in basis")

    def validate(self) -> None:
        """Raise ValidationFailed unless every structural invariant holds."""
        self._check_elements()
        self._check_leads()

    def _check_leads(self) -> None:
        """The checks of `validate` on the leads, run once at construction.

        One walk checks each lc, the staircase against the previous element
        at the same position, and the descent from the previous element.
        The rest follows.  If j < i share a position, chaining the staircase
        gives deg j > deg i and ord j > ord i.  A divisor of lm(g_i) at its
        position has degree <= deg i, so it is some g_j with j > i, and
        ord j < ord i: no element is reducible by another.  Every ord lies
        in 1..r, so a position holds at most r elements, and the basis at
        most q*r.  A staircase break with no reducible pair is a pair out
        of lm order, which the descent check then reports.
        """
        ring, order = self.ring, self.order
        leads = self.leads
        prev: dict[int, int] = {}  # position -> index of its last element so far
        for i, d in enumerate(leads):
            if d.lc != ring.p ** (ring.r - d.ord):
                raise ValidationFailed(f"element {i} has unnormalized lc {d.lc}")
            if (j := prev.get(d.lpos)) is not None:
                e = leads[j]
                if d.deg <= e.deg and d.ord >= e.ord:
                    raise ValidationFailed(f"element {j} is reducible by element {i}")
                if d.deg >= e.deg and d.ord <= e.ord:
                    raise ValidationFailed(f"element {i} is reducible by element {j}")
            prev[d.lpos] = i
            if i and order.compare(leads[i - 1].lm, d.lm) <= 0:
                raise ValidationFailed("elements not strictly descending by lm")


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


def _partners(basis: _ReducerIndex, alpha: int, pos: int, o: int) -> list[tuple[int, int, int]]:
    """first(1), ..., first(o), each once, as entries (-deg i, i, ord i), for a
    new element of lead x^alpha*e_pos and ord o.  Tests replace this by every
    earlier element of the position: the all-pairs reference.
    """
    out: list[tuple[int, int, int]] = []
    j = 1
    # no stair at j: nothing of ord >= j here, so nothing of a higher ord
    while j <= o and (stair := basis.stairs.get((pos, j))):
        # the earliest entry of degree <= alpha, else the last, of least degree
        entry = stair[min(bisect.bisect_left(stair, (-alpha,)), len(stair) - 1)]
        out.append(entry)
        # the candidates shrink as j rises, so entry is first(j) up to its ord
        j = entry[2] + 1
    return out


def buchberger(
    generators: list[PolyVec],
    order: MonomialOrder,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> GroebnerBasis:
    """Minimal Groebner basis of the module spanned by the generators.

    Completion processes S-pairs for equal leading positions and
    annihilator pairs for zero-divisor leading coefficients until every
    pair reduces to zero, then minimalizes.  A new element queues only the
    S-pairs the chain criterion does not prove zero, at most r of them
    (see the module docstring).  Deterministic: identical inputs yield
    identical bases.  max_steps caps the number of queued pairs, at most
    r + 1 per added element: the cap raises IterationLimitExceeded as soon
    as more pairs are queued than it allows, without reducing the queued
    ones first.  Reaching it indicates an input too large for the cap
    rather than expected behavior.
    """
    ring, _ = _check_inputs(generators)
    pw = [ring.p**e for e in range(ring.r + 1)]
    basis = _ReducerIndex(order)
    carried: list[tuple[tuple[int, ...], int, int]] = []  # per element: blocks, degree, ord
    heap: list[tuple[tuple[int, int], int, int]] = []  # (lcm key, newer, older)
    queued = itertools.count()

    def push(alpha: int, pos: int, k: int, i: int) -> None:
        if next(queued) >= max_steps:  # this would be pair max_steps + 1
            raise IterationLimitExceeded(f"exceeded {max_steps} queued pairs")
        heapq.heappush(heap, (order.key((alpha, pos)), k, i))

    def add_element(g: PolyVec) -> None:
        g = normalize_lc(g, order)
        k = len(basis)
        _, (alpha, pos), k_ord = g.lead(order)
        partners = _partners(basis, alpha, pos, k_ord)
        basis.append(g)
        carried.append((g._blocks, alpha, k_ord))
        for neg, i, _ in partners:
            push(max(-neg, alpha), pos, k, i)
        if k_ord < ring.r:
            push(alpha, pos, k, k)  # annihilator pair

    for g in generators:
        add_element(g)

    lay = basis[0]._lay
    while heap:
        _, k, i = heapq.heappop(heap)
        if vec := _pair_vector(lay, pw, carried[i], carried[k]):
            h = normal_form(basis[0]._like(vec), basis, order)
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
    # unit multiples have the same leading terms, so normalizing keeps the answer
    G = [normalize_lc(g, order) for g in G]
    index, pw, lay = _indexed(G, order), [ring.p**e for e in range(ring.r + 1)], G[0]._lay
    leads = [g.lead(order)[1:] for g in G]  # (lm, ord)
    carried = [(g._blocks, m.alpha, o) for g, (m, o) in zip(G, leads)]
    for i, (mi, _) in enumerate(leads):
        for j in range(i, len(G)):  # the annihilator pair, then the S-pairs at one position
            vec = leads[j][0].pos == mi.pos and _pair_vector(lay, pw, carried[i], carried[j])
            if vec and not normal_form(G[0]._like(vec), index, order).is_zero():
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
