"""Shortest linear recurrence relations of finite sequences over Z_{p^r}.

A polynomial f = f_L x^L + ... + f_0 with f_L a unit is a linear recurrence
relation of length L for S_0, ..., S_{n-1} when

    sum_{k=0}^{L} f_k * S_{j+k} == 0   for j = 0, ..., n-L-1;

the condition is vacuous for L >= n, and L = 0 is admitted (a unit constant
annihilates exactly the all-zero sequence).

The solver forms the interpolation module spanned by [1, -S(x)] and
[0, x^(n+1)] with S(x) = S_0 x^n + ... + S_{n-1} x, computes its minimal
TOP Groebner p-basis (v_1, ..., v_{2r}), and picks the unique v with
leading position 1 and full order r; its first component, made monic, is a
shortest recurrence.  `buchberger` completes the generators for r > 1; over
a field `_field_basis` builds the basis term by term, and as every tail is
then reduced and a reduced basis is unique, both give the same basis.
Writing v_i = [d_i, *], every shortest recurrence is obtained exactly once as

    q * d + sum over later i of q_i * d_i,

where q is a nonzero digit and q_i ranges over digit polynomials with
deg q_i <= deg v - deg v_i (vector degrees).  An exhaustive degree-by-degree
search over unit-leading-coefficient polynomials provides an independent
oracle for both the minimal length and the full monic solution set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from struct import Struct

from .errors import EnumerationTooLarge, IterationLimitExceeded, MixedRings, PivotNotUnique, ZeroVector
from .groebner import DEFAULT_MAX_STEPS, GroebnerBasis, buchberger
from .pbasis import PBasis, build_p_basis
from .polyvec import TOP, Poly, PolyVec, _layout
from .ring import Zpr

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class SequenceInput:
    """A finite sequence S_0, ..., S_{n-1} of canonical residues."""

    ring: Zpr
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("sequence must have length >= 1")
        if not all(isinstance(v, int) for v in self.values):
            raise TypeError("sequence values must be ints")
        object.__setattr__(
            self, "values", tuple(self.ring.reduce(v) for v in self.values)
        )

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LrrSolution:
    """A shortest recurrence together with its full parametrization.

    shortest is monic; companion is the h with [shortest, -h] in the
    interpolation module (so deg h <= deg shortest).  param_basis holds
    (d_i, degree budget) for the p-basis vectors after the pivot; together
    with a nonzero pivot digit they generate every shortest recurrence.
    pivot_digit_range is range(1, p), the nonzero digits.
    """

    ring: Zpr
    sequence: tuple[int, ...]
    shortest: Poly
    length: int
    companion: Poly
    param_basis: tuple[tuple[Poly, int], ...]
    pivot_digit_range: range
    pivot_index: int
    pbasis: PBasis


def is_lrr(f: Poly, S: SequenceInput) -> bool:
    """True when f has unit leading coefficient and annihilates the sequence."""
    if f.ring != S.ring:
        raise MixedRings(f"{f.ring} vs {S.ring}")
    if f.is_zero():
        raise ZeroVector("the zero polynomial is not a recurrence")
    ring, vals, L = S.ring, S.values, f.degree
    return ring.is_unit(f.lead_coeff) and not any(
        sum(map(mul, f.coeffs, vals[j:j + L + 1])) % ring.modulus for j in range(S.n - L))


def build_module(S: SequenceInput) -> tuple[PolyVec, PolyVec]:
    """Generators ([1, -S(x)], [0, x^(n+1)]) of the interpolation module, each
    packed as one int: degree a > 0 of the first is the slots (0, -S_(n-a))."""
    lay, m, zero = _layout(S.ring, 2), S.ring.modulus, PolyVec.zero(S.ring, 2)
    degree = f"0{lay.dw}b"
    s1 = int("".join([format(-v % m, degree) for v in S.values]) + format(1 << lay.W, degree), 2)
    return zero._like(lay.blocks(s1)), zero._like(lay.blocks(1 << (S.n + 1) * lay.dw))


def _field_basis(S: SequenceInput) -> GroebnerBasis:
    """The minimal TOP basis of the interpolation module over a field, term by term.

    [f, h] is in the module when f*S(x) + h == 0 mod x^(n+1).  For k = 0..n
    a basis mod x^k, from e1 and e2, becomes one mod x^(k+1) (Fitzpatrick,
    *On the key equation*, IEEE-IT 1995): of the elements whose discrepancy,
    the coefficient of x^k in f*S + h, is nonzero, the one of least TOP lead
    is multiplied by x, after the other has it subtracted, scaled to cancel
    its own.  The leads keep positions 1 and 2, so the basis stays minimal.

    An element is one int in PolyVec slots, which are in TOP order, so the
    larger int has the larger lead.  Its residual f*S + h over x^k is one
    int of a W-bit slot per degree, the discrepancy lowest.  Subtraction is
    an XOR for p = 2 and a `_Layout.fold` for odd p.
    """
    p, lay = S.ring.p, _layout(S.ring, 2)
    W, smask, fold = lay.W, lay.smask, lay.fold
    # e1 = [1, 0] has residual S(x): S_0 in slot n, down to S_(n-1) in slot 1
    a, ra = 1 << W, int("".join([format(v, f"0{W}b") for v in (*S.values, 0)]), 2)
    b, rb = 1, 1  # e2 = [0, 1]
    for _ in range(S.n + 1):
        if db := rb & smask:
            if da := ra & smask:
                if p == 2:
                    a, ra = a ^ b, ra ^ rb
                else:
                    c = (p - da) * pow(db, -1, p) % p
                    a, ra = fold(a + c * b), fold(ra + c * rb)
            b, ra = b << lay.dw, ra >> W
            if b > a:
                a, b, ra, rb = b, a, rb, ra
        elif ra & smask:
            a, rb = a << lay.dw, rb >> W
        else:
            ra, rb = ra >> W, rb >> W
    zero = PolyVec.zero(S.ring, 2)
    return GroebnerBasis.from_elements([zero._like(lay.blocks(a)), zero._like(lay.blocks(b))], TOP)


def shortest_lrr(S: SequenceInput, max_steps: int = DEFAULT_MAX_STEPS) -> LrrSolution:
    """Shortest recurrence for S with the parametrization of all of them.

    max_steps caps `buchberger`'s queued pairs for r > 1.  Over a field the
    basis takes n + 1 steps, and more than max_steps raise
    IterationLimitExceeded before the first.
    """
    ring = S.ring
    if ring.r > 1:
        G = buchberger(list(build_module(S)), TOP, max_steps=max_steps)
    elif S.n + 1 > max_steps:
        raise IterationLimitExceeded(f"{S.n + 1} steps exceed {max_steps}")
    else:
        G = _field_basis(S)
    basis = build_p_basis(G)
    pivots = [
        i
        for i, v in enumerate(basis.vectors)
        if v.lpos(TOP) == 1 and v.ord(TOP) == ring.r
    ]
    if len(pivots) != 1:
        raise PivotNotUnique(
            f"{len(pivots)} candidates with leading position 1 and order {ring.r}"
        )
    ell = pivots[0]
    pivot = basis.vectors[ell]  # lc 1: a normalized lc of full order
    d = pivot.component(1)
    assert d.is_monic() and d.degree == pivot.deg(TOP)
    params = tuple(
        (basis.vectors[i].component(1), pivot.deg(TOP) - basis.vectors[i].deg(TOP))
        for i in range(ell + 1, basis.N)
    )
    assert all(budget >= 0 for _, budget in params)
    return LrrSolution(
        ring=ring,
        sequence=S.values,
        shortest=d,
        length=d.degree,
        companion=-pivot.component(2),
        param_basis=params,
        pivot_digit_range=range(1, ring.p),
        pivot_index=ell,
        pbasis=basis,
    )


def _solution_count(ring: Zpr, params, monic_only: bool) -> int:
    """The number of shortest recurrences that the (d, budget) params parametrize.

    (p-1) * p^slots unit-leading-coefficient ones, slots = sum(budget + 1)
    over the params (each d nonzero), of which p^(slots-r+1) are monic:
    enumerate_shortest gives the proof.
    """
    slots = sum(budget + 1 for _, budget in params)
    return ring.p ** (slots - ring.r + 1) if monic_only else (ring.p - 1) * ring.p ** slots


def _add_params(stage: list, params: list, p: int, m: int, packing: tuple) -> list:
    """Sum onto stage the digit span [sum_s theta_s x^s d] of each (d, budget), packed.

    The result holds len(stage) * p^slots sums, slots = sum(budget + 1), one
    for each stage vector and digit choice, repeats included.
    """
    W, ones, K, vec = packing
    top, width = W - 1, vec.size * 8 // W  # K sets bit `top` of a slot that reached m
    for d, budget in params:
        # a single stage vector seeds the span, so the full-size list is built once
        single = len(stage) == 1
        span = stage if single else [0]
        pad = (0,) * (width - d.degree - 1)
        # t * d for the digits t; x^s t d is it shifted s slots down
        multiples = [int.from_bytes(vec.pack(*[t * c % m for c in d.coeffs], *pad), "big")
                     for t in range(p)]
        for s in range(budget + 1):
            span = [u - ((u + K) >> top & ones) * m
                    for a in span for b in multiples for u in (a + (b >> W * s),)]
        stage = span if single else [u - ((u + K) >> top & ones) * m
                                     for a in stage for b in span for u in (a + b,)]
    return stage


def enumerate_shortest(
    sol: LrrSolution, monic_only: bool = True, cap: int = DEFAULT_ENUM_CAP
) -> list[Poly]:
    """Materialize the parametrized shortest recurrences, each exactly once.

    With monic_only, keeps exactly the digit choices whose combination has
    leading coefficient 1.  Only parameters with deg d_i + budget_i == L
    reach x^L; their leading coefficients are not units, so they add a
    multiple of p there, and q * d + ... has f_L = q (mod p).  Monic mode
    thus starts from the pivot digit q = 1 alone and filters once those
    parameters are added, before the others multiply the list.  The cap
    counts all (p-1) * p^slots parameter tuples in both modes.  Results are
    sorted by ascending coefficient tuples.

    No two digit tuples give one recurrence, so nothing is deduplicated:
    - on a minimal p-basis every module element has exactly one
      representation sum a_i v_i with digit-polynomial coefficients a_i
      (the unique representation that Kuijper-Schindelar derive from the
      p-PLM property), so distinct tuples give distinct vectors [f, -h];
    - every such vector has degree <= L <= n, so two of them with one f
      differ by [0, h - h'], a module element; its first component 0
      makes h - h' a multiple of x^(n+1) of degree <= n, so h = h'.
    Hence there are (p-1) * p^slots unit-leading-coefficient shortest
    recurrences.  The unit group, of order (p-1) * p^(r-1), acts freely on
    them (u f = f with f_L a unit forces u = 1), and each orbit holds one
    monic f, so p^(slots-r+1) are monic.  _solution_count states both.

    Sums run on packed vectors: (c_0, ..., c_L) is one int, c_0 in the top
    of L+1 slots of W bits, W the least of 8, 16, 32, 64 with 2m <= 2^W.
    Reduced slots are below m = p^r, so a slotwise sum is below 2m and never
    carries; adding K = 2^(W-1) - m to each slot sets its top bit exactly
    when it reached m, and m is subtracted there.  Int order is tuple order.
    """
    ring, p, m, L = sol.ring, sol.ring.p, sol.ring.modulus, sol.length
    active = [(d, budget) for d, budget in sol.param_basis if not d.is_zero()]
    total = _solution_count(ring, active, False)
    if total > cap:
        raise EnumerationTooLarge(f"{total} parameter tuples exceed cap {cap}")
    assert all(d.degree + budget <= L for d, budget in active)
    top = [(d, budget) for d, budget in active if d.degree + budget == L]
    rest = [(d, budget) for d, budget in active if d.degree + budget < L]
    W = max(8, 1 << ((2 * m - 1).bit_length() - 1).bit_length())  # 8, 16, 32 or 64
    ones = ((1 << W * (L + 1)) - 1) // ((1 << W) - 1)
    vec = Struct(">" + "BHIQ"[W.bit_length() - 4] * (L + 1))
    packing = W, ones, ((1 << W - 1) - m) * ones, vec
    low = (1 << W) - 1  # the slot of f_L
    stage = [int.from_bytes(vec.pack(*[q * c % m for c in sol.shortest.coeffs]), "big")
             for q in range(1, 2 if monic_only else p)]
    stage = _add_params(stage, top, p, m, packing)
    assert all((f & low) % p == 1 if monic_only else (f & low) % p for f in stage)
    if monic_only:
        stage = [f for f in stage if f & low == 1]
    stage = _add_params(stage, rest, p, m, packing)
    # each int gives way to its polynomial in place, so that the up to 65536
    # results of the cap are not held as ints and as polynomials at once
    stage.sort()
    for i, f in enumerate(stage):
        stage[i] = Poly._trusted(ring, vec.unpack(f.to_bytes(vec.size, "big")))
    return stage


def brute_force_shortest(
    S: SequenceInput, max_deg: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int | None, list[Poly]]:
    """Independent oracle: exhaustive search for the minimal recurrence length.

    Tests monic polynomials degree by degree (unit-leading-coefficient
    recurrences are unit multiples of monic ones, so this loses nothing)
    and returns (L, all monic recurrences of length L).  Degree n always
    succeeds; (None, []) is only possible when max_deg < the true length.
    """
    ring, vals, n = S.ring, S.values, S.n
    m = ring.modulus
    top = n if max_deg is None else max_deg
    budget = 0
    for L in range(top + 1):
        budget += m**L
        if budget > cap:
            raise EnumerationTooLarge(f"{budget} candidates exceed cap {cap}")
        sols = []
        n_checks = n - L
        for lower in itertools.product(range(m), repeat=L):
            ok = True
            for j in range(n_checks):
                acc = vals[j + L]
                for k in range(L):
                    c = lower[k]
                    if c:
                        acc += c * vals[j + k]
                if acc % m:
                    ok = False
                    break
            if ok:
                sols.append(Poly(ring, lower + (1,)))
        if sols:
            return L, sols
    return None, []
