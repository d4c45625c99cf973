"""Order differences, minimal Groebner p-bases, and digit representations.

From a sorted minimal Groebner basis (g_1, ..., g_m) with order differences
(beta_1, ..., beta_m) the sequence

    (g_1, p*g_1, ..., p^(beta_1 - 1)*g_1, ..., g_m, ..., p^(beta_m - 1)*g_m)

is a p-generator sequence spanning the same module: p times the last vector
is zero and p times every other vector is a combination of the later ones
with digit-polynomial coefficients (coefficients in {0, ..., p-1}); within
a chain p^e*g_j that combination is the next vector, so only chain ends
are digit-represented when the property is checked.  The sequence is
p-linearly independent, so its length N = sum of the betas is an invariant
of the module (its p-dimension), independent of the monomial order.  Every
module element then has a unique digit-coefficient representation,
recovered here by greedy leading-digit peeling.

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

    The p-generator-sequence property is verified chain by chain.  Within a
    chain, p * v_i must be the next vector exactly: G's validation makes each
    lc p^(r - ord) and the ords of a position strictly fall, so the chains
    of a position hold disjoint p-power layers and the greedy digit split of
    p * v_i is 1 on the next vector and 0 elsewhere.  A chain end is
    re-expressed in digit coordinates over the later vectors and the
    expression re-evaluated for exact equality; p times the last vector must
    be zero.  A failure signals an upstream basis bug and raises
    ValidationFailed; the shared-layer check cannot fail for a validated G.
    """
    ring, order = G.ring, G.order
    betas = order_differences(G).betas
    provenance = tuple((j, e) for j, b in enumerate(betas) for e in range(b))
    vectors = tuple(G.elements[j].scale(ring.p**e) for j, e in provenance)
    basis = PBasis(order, vectors, provenance, betas)

    first: dict[tuple[int, int], int] = {}
    for k, v in enumerate(vectors):
        i = first.setdefault((v.lpos(order), v.ord(order)), k)
        if i != k:
            raise ValidationFailed(
                f"vectors {i} and {k} share leading position and order"
            )
    for i, vi in enumerate(vectors):
        pv = vi.scale(ring.p)
        j, e = provenance[i]
        if e < betas[j] - 1:
            if pv != vectors[i + 1]:
                raise ValidationFailed(f"p * vector {i} is not vector {i + 1}")
        elif i == len(vectors) - 1:
            if not pv.is_zero():
                raise ValidationFailed("p times the last vector is nonzero")
        elif not pv.is_zero():
            tail = vectors[i + 1 :]
            try:
                coeffs = _represent(pv, tail, order)
            except NotInModule as exc:
                raise ValidationFailed(
                    f"p * vector {i} is not a digit combination of the later vectors"
                ) from exc
            if combine(coeffs, tail) != pv:
                raise ValidationFailed(f"digit expression for p * vector {i} is inexact")
    return basis


def p_dim(basis: PBasis) -> int:
    """The p-dimension of the spanned module: the number of basis vectors."""
    assert basis.N == sum(basis.betas)
    return basis.N


def _represent(
    f: PolyVec, vectors: tuple[PolyVec, ...] | list[PolyVec], order: MonomialOrder
) -> tuple[Poly, ...]:
    """Greedy digit-coefficient representation of f over a p-basis fragment.

    At each step the leading coefficient of the residual is split into
    digits along the p-power layers offered by the vectors whose leading
    monomial divides the residual's; the layers are distinct, so every
    digit is forced and the leading monomial strictly decreases.
    """
    ring = f.ring
    digits: list[dict[int, int]] = [{} for _ in vectors]
    work = f
    while not work.is_zero():
        c, X = work.lt(order)
        cands = [
            (ring.vp(v.lc(order)), i, v)
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
            u = ring.unit_part(v.lc(order))
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


def p_represent(f: PolyVec, basis: PBasis) -> tuple[Poly, ...]:
    """The unique digit-coefficient representation of f over the p-basis.

    Accepts any vector of the ambient space; raises NotInModule when f is
    not in the spanned module.  The returned coefficients are polynomials
    with digits in {0, ..., p-1} and the expansion is verified exactly
    before returning.
    """
    ring = basis.ring
    if f.ring != ring:
        raise MixedRings(f"{f.ring} vs {ring}")
    if f.q != basis.vectors[0].q:
        raise DimensionMismatch(f"q={f.q} vs q={basis.vectors[0].q}")
    coeffs = _represent(f, basis.vectors, basis.order)
    assert combine(coeffs, basis.vectors) == f
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
