"""The Monomial-keyed dict arithmetic that `PolyVec` used before it was packed,
and the chunk-by-chunk polynomial parser that the one-regex grammar replaced.

Kept as references: `tests/test_polyvec.py` runs both implementations on
seeded inputs and requires the same terms, leading data and values, and
the same accepted strings with the same coefficients.  A `DictVec` maps
monomials to nonzero canonical residues.
"""

from __future__ import annotations

import re

from pgroebner import Monomial, MonomialOrder, ParseError, Poly, PolyVec, ZeroVector
from pgroebner.polyvec import MAX_EXPONENT

_TERM_RE = re.compile(r"^(?:([0-9]+)\*?)?(x(?:\^([0-9]+))?)?$")


def parse_poly(ring, text: str) -> Poly:
    """The chunk parser: split at signs, then match each term on its own."""
    s = re.sub(r"\s+", "", text).replace("\u2212", "-")
    if not s:
        raise ParseError("empty polynomial")
    chunks = re.findall(r"[+-]|[^+-]+", s)
    sign = 1
    expect_term = True
    coeffs: dict[int, int] = {}
    if chunks and chunks[0] in "+-":
        sign = -1 if chunks[0] == "-" else 1
        chunks = chunks[1:]
    for chunk in chunks:
        if chunk in "+-":
            if expect_term:
                raise ParseError(f"dangling sign in {text!r}")
            sign = -1 if chunk == "-" else 1
            expect_term = True
            continue
        if not expect_term:
            raise ParseError(f"missing separator in {text!r}")
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(f"bad term {chunk!r} in {text!r}")
        try:
            c = int(m.group(1)) if m.group(1) is not None else 1
            alpha = 0 if m.group(2) is None else int(m.group(3) or 1)
        except ValueError as exc:  # more digits than int() accepts
            raise ParseError(f"number too long in term {chunk[:20]!r}...") from exc
        if alpha > MAX_EXPONENT:
            raise ParseError(f"exponent above {MAX_EXPONENT} in term {chunk[:20]!r}")
        coeffs[alpha] = coeffs.get(alpha, 0) + sign * c
        expect_term = False
    if expect_term:
        raise ParseError(f"dangling sign in {text!r}")
    top = max(coeffs, default=-1)
    return Poly(ring, (coeffs.get(k, 0) for k in range(top + 1)))


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

