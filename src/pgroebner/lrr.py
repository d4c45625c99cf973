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
shortest recurrence.  Writing v_i = [d_i, *], every shortest recurrence is
obtained exactly once as

    q * d + sum over later i of q_i * d_i,

where q is a nonzero digit and q_i ranges over digit polynomials with
deg q_i <= deg v - deg v_i (vector degrees).  An exhaustive degree-by-degree
search over unit-leading-coefficient polynomials provides an independent
oracle for both the minimal length and the full monic solution set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EnumerationTooLarge, PivotNotUnique, ZeroVector
from .groebner import DEFAULT_MAX_STEPS, buchberger
from .pbasis import PBasis, build_p_basis
from .polyvec import TOP, Poly, PolyVec
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


def build_module(S: SequenceInput) -> tuple[PolyVec, PolyVec]:
    """Generators ([1, -S(x)], [0, x^(n+1)]) of the interpolation module."""
    ring, n = S.ring, S.n
    coeffs = [0] * (n + 1)
    for i, v in enumerate(S.values):
        coeffs[n - i] = v
    s_poly = Poly(ring, coeffs)
    s1 = PolyVec.from_components(ring, [Poly.constant(ring, 1), -s_poly])
    s2 = PolyVec.from_components(ring, [Poly.zero(ring), Poly.monomial(ring, 1, n + 1)])
    return s1, s2


def shortest_lrr(S: SequenceInput, max_steps: int = DEFAULT_MAX_STEPS) -> LrrSolution:
    """Shortest recurrence for S with the parametrization of all of them."""
    ring = S.ring
    s1, s2 = build_module(S)
    G = buchberger([s1, s2], TOP, max_steps=max_steps)
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


def _add_params(stage: set, params: list, p: int, m: int, width: int) -> set:
    """Sum onto stage the digit span {sum_s theta_s x^s d} of each (d, budget)."""
    for d, budget in params:
        # a single stage tuple seeds the span, which is then already the
        # sum: the set of the full size is built once, not twice
        single = len(stage) == 1
        span = stage if single else {(0,) * width}
        for s in range(budget + 1):
            copy = (0,) * s + d.coeffs + (0,) * (width - d.degree - 1 - s)
            span = {tuple([(a + t * c) % m for a, c in zip(f, copy)])
                    for f in span for t in range(p)}
        # tuple([...]) builds faster than tuple(generator) on this hot path
        stage = span if single else {tuple([(a + b) % m for a, b in zip(f, g)])
                                     for f in stage for g in span}
    return stage


def enumerate_shortest(
    sol: LrrSolution, monic_only: bool = True, cap: int = DEFAULT_ENUM_CAP
) -> list[Poly]:
    """Materialize the parametrized shortest recurrences, deduplicated.

    With monic_only, keeps exactly the digit choices whose combination has
    leading coefficient 1.  Only parameters with deg d_i + budget_i == L
    reach x^L, so every leading coefficient is final once they are added,
    and the monic filter runs before the other parameters multiply the set.
    Those parameters have non-unit leading coefficients, so they add a
    multiple of p at x^L, and q * d + ... has f_L = q (mod p): a monic
    result needs the pivot digit q = 1, and monic mode visits only the
    p^slots tuples with q = 1.  The cap still counts all (p-1) * p^slots parameter tuples, so
    both modes accept and refuse the same solutions.  Distinct digit
    tuples can collide after reduction mod p^r, so results are
    deduplicated and sorted by ascending coefficient tuples.
    """
    p, m, L = sol.ring.p, sol.ring.modulus, sol.length
    active = [(d, budget) for d, budget in sol.param_basis if not d.is_zero()]
    slots = sum(budget + 1 for _, budget in active)
    total = (p - 1) * p**slots
    if total > cap:
        raise EnumerationTooLarge(f"{total} parameter tuples exceed cap {cap}")
    assert all(d.degree + budget <= L for d, budget in active)
    top = [(d, budget) for d, budget in active if d.degree + budget == L]
    rest = [(d, budget) for d, budget in active if d.degree + budget < L]
    digits = (1,) if monic_only else sol.pivot_digit_range
    stage = {tuple(q * c % m for c in sol.shortest.coeffs) for q in digits}
    stage = _add_params(stage, top, p, m, L + 1)
    assert all(f[L] % p == 1 if monic_only else f[L] % p for f in stage)
    if monic_only:
        stage = {f for f in stage if f[L] == 1}
    stage = _add_params(stage, rest, p, m, L + 1)
    # every tuple is reduced and ends in a unit: the polynomials share the
    # tuples, and the set is dropped first, so that up to the cap's 65536
    # results are held once rather than twice
    ordered = sorted(stage)
    del stage
    return [Poly._trusted(sol.ring, f) for f in ordered]


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
