"""The Monomial-keyed dict arithmetic that `PolyVec` used before it was packed.

Kept as the reference of the packed blocks: `tests/test_polyvec.py` runs
both on seeded vectors and requires the same terms, leading data and
values.  A `DictVec` maps monomials to nonzero canonical residues.
"""

from __future__ import annotations

from pgroebner import Monomial, MonomialOrder, Poly, PolyVec, ZeroVector


class DictVec:
    """An element of Z_{p^r}[x]^q held as monomial -> nonzero residue."""

    def __init__(self, ring, q: int, terms: dict[Monomial, int] | None = None):
        m = ring.modulus
        self.ring = ring
        self.q = q
        self.terms = {mono: c % m for mono, c in (terms or {}).items() if c % m}

    @classmethod
    def of(cls, v: PolyVec) -> "DictVec":
        return cls(v.ring, v.q, dict(v.terms))

    def packed(self) -> PolyVec:
        return PolyVec(self.ring, self.q, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DictVec") -> "DictVec":
        return self.sub_term_mul(other, -1, 0)

    def __sub__(self, other: "DictVec") -> "DictVec":
        return self.sub_term_mul(other, 1, 0)

    def __neg__(self) -> "DictVec":
        return self.scale(-1)

    def scale(self, c: int) -> "DictVec":
        return DictVec(self.ring, self.q, {mono: c * v for mono, v in self.terms.items()})

    def term_mul(self, c: int, gamma: int) -> "DictVec":
        terms = {Monomial(a + gamma, pos): c * v for (a, pos), v in self.terms.items()}
        return DictVec(self.ring, self.q, terms)

    def sub_term_mul(self, other: "DictVec", c: int, gamma: int) -> "DictVec":
        """self - c * x^gamma * other."""
        terms = dict(self.terms)
        for (a, pos), v in other.terms.items():
            mono = Monomial(a + gamma, pos)
            terms[mono] = terms.get(mono, 0) - c * v
        return DictVec(self.ring, self.q, terms)

    def poly_mul(self, a: Poly) -> "DictVec":
        return combine([a], [self])

    def lead(self, order: MonomialOrder) -> tuple[int, Monomial, int]:
        """(lc, lm, ord(lc)) by a scan of every term under the order's key."""
        if not self.terms:
            raise ZeroVector("zero vector has no leading monomial")
        m = max(self.terms, key=order.key)
        c = self.terms[m]
        return c, m, self.ring.ord(c)

    def components(self) -> list[Poly]:
        rows: list[list[int]] = [[] for _ in range(self.q)]
        for (alpha, pos), c in sorted(self.terms.items()):
            row = rows[pos - 1]
            row += [0] * (alpha - len(row)) + [c]
        return [Poly(self.ring, row) for row in rows]


def combine(coeffs, vectors) -> DictVec:
    """sum a_i * v_i with scalar polynomial coefficients a_i."""
    ring, q = vectors[0].ring, vectors[0].q
    terms: dict[Monomial, int] = {}
    for a, v in zip(coeffs, vectors):
        for gamma, c in enumerate(a.coeffs):
            for (alpha, pos), x in v.terms.items():
                key = Monomial(alpha + gamma, pos)
                terms[key] = terms.get(key, 0) + c * x
    return DictVec(ring, q, terms)

