"""Order differences, minimal Groebner p-bases, and digit representations.

From a sorted minimal Groebner basis (g_1, ..., g_m) with order differences
(beta_1, ..., beta_m) the sequence

    (g_1, p*g_1, ..., p^(beta_1 - 1)*g_1, ..., g_m, ..., p^(beta_m - 1)*g_m)

is a p-generator sequence spanning the same module: p times the last vector
is zero and p times every other vector is a combination of the later ones
with digit-polynomial coefficients (coefficients in {0, ..., p-1}); within
a chain p^e*g_j that combination is the next vector by construction, so
`build_p_basis` checks the chain ends only: each is digit-represented and
re-evaluated, and p times the last vector must be zero.  That no two
vectors share a leading position and order follows from the validated
staircase of the basis (see `build_p_basis`).  The sequence is
p-linearly independent, so its length N = sum of the betas is an invariant
of the module (its p-dimension), independent of the monomial order.  Every
module element then has a unique digit-coefficient representation.  Since
a leading position and order name at most one vector, each digit is read
from the vector filed under the residual's leading position and order,
one digit per step (see `_represent`).

beta_j is the drop from ord(g_j) to the order of the next element sharing
its leading position, or ord(g_j) when there is none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, MixedRings, NotInModule, ValidationFailed
from .groebner import GroebnerBasis, PlmReport, _sample_plm
from .polyvec import MonomialOrder, Poly, PolyVec, combine, format_vector


@dataclass(frozen=True)
class OrderDiffs:
    """The order-difference sequence of a sorted minimal Groebner basis."""

    betas: tuple[int, ...]

    def __iter__(self):
        return iter(self.betas)

    def __len__(self) -> int:
        return len(self.betas)


def order_differences(G: GroebnerBasis) -> OrderDiffs:
    """beta_j = ord(g_j) - ord(g_i) for the next i > j sharing lpos, else ord(g_j)."""
    later: dict[int, int] = {}  # lpos -> ord of the nearest later element there
    betas = []
    for d in reversed(G.leads):
        betas.append(d.ord - later.get(d.lpos, 0))
        assert betas[-1] >= 1
        later[d.lpos] = d.ord
    return OrderDiffs(tuple(reversed(betas)))


@dataclass(frozen=True)
class PBasis:
    """A minimal Groebner p-basis: vectors, their provenance, and the betas.

    provenance[i] = (j, e) records that vectors[i] == p^e * g_j for the j-th
    element of the source basis (0-based).
    """

    order: MonomialOrder
    vectors: tuple[PolyVec, ...]
    provenance: tuple[tuple[int, int], ...]
    betas: tuple[int, ...]

    @property
    def N(self) -> int:
        return len(self.vectors)

    @property
    def ring(self):
        return self.vectors[0].ring

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> PolyVec:
        return self.vectors[i]


def build_p_basis(G: GroebnerBasis) -> PBasis:
    """Expand a sorted minimal Groebner basis into its p-basis.

    The p-generator-sequence property is checked at the chain ends only.
    Within a chain p * v_i is the next vector by construction: both are
    p^(e+1) * g_j, built by `scale`, its leading data read off g_j's.  G's
    validation makes each lc p^(r - ord) and the ords of a position
    strictly fall, so the chains of a position hold disjoint p-power
    layers and no two vectors share a leading position and order.  p times
    a chain end must be re-expressed in digit coordinates over the later
    vectors, the expression re-evaluated for exact equality, and p times
    the last vector must be zero; either can fail for a parsed document.
    A failure raises ValidationFailed.
    """
    ring, order = G.ring, G.order
    betas = order_differences(G).betas
    provenance = tuple((j, e) for j, b in enumerate(betas) for e in range(b))
    leads = G.leads  # p^e * g_j keeps lm(g_j); its lc p^(r - ord) becomes p^(r - ord + e)
    vectors = tuple(G.elements[j].scale(ring.p**e, order, (
        ring.p ** (ring.r - leads[j].ord + e), leads[j].lm, leads[j].ord - e)) for j, e in provenance)
    end = -1
    for b in betas:
        end += b
        pv = vectors[end].scale(ring.p)
        if end == len(vectors) - 1:
            if not pv.is_zero():
                raise ValidationFailed("p times the last vector is nonzero")
        elif not pv.is_zero():
            tail = vectors[end + 1 :]
            try:
                coeffs = _represent(pv, tail, order)
            except NotInModule as exc:
                raise ValidationFailed(
                    f"p * vector {end} is not a digit combination of the later vectors"
                ) from exc
            if combine(coeffs, tail) != pv:
                raise ValidationFailed(f"digit expression for p * vector {end} is inexact")
    return PBasis(order, vectors, provenance, betas)


def p_dim(basis: PBasis) -> int:
    """The p-dimension of the spanned module: the number of basis vectors."""
    assert basis.N == sum(basis.betas)
    return basis.N


def _represent(
    f: PolyVec, vectors: tuple[PolyVec, ...] | list[PolyVec], order: MonomialOrder
) -> tuple[Poly, ...]:
    """Digit-coefficient representation of f over a p-basis fragment.

    The vectors are filed by (leading position, order); a repeated key
    raises ValidationFailed, since no p-basis has one.  A residual lead c*X
    of order o can only be cancelled by the vector v filed at (X.pos, o),
    and only if deg v <= deg X.  With e = r - o, c and lc(v) are units times
    p^e, so the digit theta = (c / p^e) * (lc(v) / p^e)^-1 mod p makes
    theta*x^s*v agree with the lead mod p^(e+1): subtracting it leaves X
    with a lower order, or moves the lead below X.  Each (vector, shift) is
    thus met at most once.
    """
    ring, p = f.ring, f.ring.p
    at: dict[tuple[int, int], int] = {}
    for i, v in enumerate(vectors):
        _, m, o = v.lead(order)
        if at.setdefault((m.pos, o), i) != i:
            raise ValidationFailed(f"vectors {at[m.pos, o]} and {i} share lpos and ord")
    digits: list[dict[int, int]] = [{} for _ in vectors]
    while not f.is_zero():
        c, X, o = f.lead(order)
        i = at.get((X.pos, o))
        if i is None or (s := X.alpha - vectors[i].deg(order)) < 0:
            raise NotInModule(f"leading term {c} at {X} is not digit-expressible")
        pe = p ** (ring.r - o)
        theta = ring.mul(c // pe, pow(vectors[i].lc(order) // pe, -1, p)) % p
        digits[i][s] = theta
        f = f.sub_term_mul(vectors[i], theta, s)
    return tuple(
        Poly(ring, (d.get(k, 0) for k in range(max(d, default=-1) + 1))) for d in digits
    )


def p_represent(f: PolyVec, basis: PBasis) -> tuple[Poly, ...]:
    """The unique digit-coefficient representation of f over the p-basis.

    Accepts any vector of the ambient space; raises NotInModule when f is
    not in the spanned module.  The returned coefficients are polynomials
    with digits in {0, ..., p-1} and the expansion is verified exactly
    before returning; a basis for which either fails raises ValidationFailed.
    """
    ring = basis.ring
    if f.ring != ring:
        raise MixedRings(f"{f.ring} vs {ring}")
    if f.q != basis.vectors[0].q:
        raise DimensionMismatch(f"q={f.q} vs q={basis.vectors[0].q}")
    coeffs = _represent(f, basis.vectors, basis.order)
    if combine(coeffs, basis.vectors) != f:
        raise ValidationFailed("digit expression is inexact")
    return coeffs


def check_p_plm(
    basis: PBasis, trials: int = 500, seed: int = 0, deg_bound: int = 3
) -> PlmReport:
    """Randomized check of the p-predictable leading monomial property.

    Samples digit-polynomial tuples a_i, forms f = sum a_i v_i, and checks
    that nontrivial tuples give f != 0 (p-linear independence) with
    lm(f) == max over nonzero a_i of lm(a_i)*lm(v_i).
    """
    return _sample_plm(basis.vectors, basis.order, trials, seed, deg_bound, zero_fails=True)


def format_p_basis(basis: PBasis) -> str:
    """Listing: sidecar header line, then one vector per line."""
    betas = ",".join(str(b) for b in basis.betas)
    header = f"# betas=({betas}) N={basis.N} order={basis.order.value}"
    rows = "\n".join(format_vector(v) for v in basis.vectors)
    return f"{header}\n{rows}"
