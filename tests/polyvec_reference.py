"""The Monomial-keyed dict arithmetic that `PolyVec` used before it was packed,
the chunk-by-chunk polynomial parser that the one-regex grammar replaced, and
the text I/O that the slot reader and the lane walk replaced.

Kept as references: `tests/test_polyvec.py` runs both implementations on
seeded inputs and requires the same terms, leading data and values, the
same accepted strings with the same coefficients, and the same blocks,
components, text and ParseError messages.  A `DictVec` maps monomials to
nonzero canonical residues.
"""

from __future__ import annotations

import re
from itertools import zip_longest

from pgroebner import DimensionMismatch, MixedRings, Monomial, MonomialOrder, ParseError, Poly
from pgroebner import PolyVec, ZeroVector
from pgroebner.polyvec import BLOCK, MAX_EXPONENT, _strip
from pgroebner.polyvec import _POLY_RE as GRAMMAR_POLY_RE, _TERM_RE as GRAMMAR_TERM_RE

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



# -- text I/O through per-component `Poly` objects and a binary string -------------


def pack(lay, rows) -> int:
    """The block whose degree a has the residues rows[a], position 1 first."""
    fmt = f"0{lay.W}b"
    return int("".join([format(c, fmt) for row in reversed(rows) for c in row]), 2)


def bits(lay, blocks) -> str:
    """The blocks in binary, top degree first, whole degrees of dw bits each."""
    if not blocks:
        return ""
    top = blocks[-1]
    width = -(-top.bit_length() // lay.dw) * lay.dw
    return "".join([format(top, "b").zfill(width)]
                   + [format(x, "b").zfill(lay.bw) for x in reversed(blocks[:-1])])


def _component(v: PolyVec, text: str, pos: int) -> Poly:
    """Component pos read from the binary text of the blocks (`bits`)."""
    W = v._lay.W
    coeffs = [int(text[i:i + W], 2) for i in range((pos - 1) * W, len(text), v._lay.dw)]
    top = next((k for k, c in enumerate(coeffs) if c), len(coeffs))  # zeros above deg
    return Poly._trusted(v.ring, tuple(coeffs[:top - 1:-1] if top else coeffs[::-1]))


def component(v: PolyVec, pos: int) -> Poly:
    if not (1 <= pos <= v.q):
        raise DimensionMismatch(f"position {pos} outside [1, {v.q}]")
    return _component(v, bits(v._lay, v._blocks), pos)


def components(v: PolyVec) -> list[Poly]:
    text = bits(v._lay, v._blocks)
    return [_component(v, text, pos) for pos in range(1, v.q + 1)]


def from_components(ring, comps: list[Poly]) -> PolyVec:
    """The vector of the components, packed a block of rows at a time."""
    for poly in comps:
        if poly.ring != ring:
            raise MixedRings(f"{ring} vs {poly.ring}")
    zero = PolyVec(ring, len(comps))
    rows = [*zip_longest(*[f.coeffs for f in comps], fillvalue=0)]
    chunks = [rows[b:b + BLOCK] for b in range(0, len(rows), BLOCK)]
    return zero._like(_strip([pack(zero._lay, c) if any(map(any, c)) else 0 for c in chunks]))


def dict_parse_poly(ring, text: str) -> Poly:
    """The one-regex parser, adding each term into a degree -> coefficient dict."""
    s = re.sub(r"\s+", "", text).replace("\u2212", "-")
    if not s:
        raise ParseError("empty polynomial")
    if not GRAMMAR_POLY_RE.fullmatch(s):
        raise ParseError(f"bad term in {text!r}")
    coeffs: dict[int, int] = {}
    for sign, c, x, k in GRAMMAR_TERM_RE.findall(s):
        try:
            c, alpha = int(c or 1), (int(k or 1) if x else 0)
        except ValueError as exc:  # more digits than int() accepts
            raise ParseError(f"number too long in {s[:20]!r}...") from exc
        if alpha > MAX_EXPONENT:
            raise ParseError(f"exponent above {MAX_EXPONENT} in {s[:20]!r}")
        coeffs[alpha] = coeffs.get(alpha, 0) + (-c if sign == "-" else c)
    top = max(coeffs, default=-1)
    return Poly(ring, (coeffs.get(k, 0) for k in range(top + 1)))


def format_poly(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    pieces = []
    coeffs = poly.coeffs
    for alpha in range(poly.degree, -1, -1):
        c = coeffs[alpha]
        if not c:
            continue
        if alpha == 0:
            pieces.append(str(c))
        else:
            x = "x" if alpha == 1 else f"x^{alpha}"
            pieces.append(x if c == 1 else f"{c}{x}")
    return "+".join(pieces)


def parse_vector(ring, text: str) -> PolyVec:
    """A `Poly` per entry, then `from_components`."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"vector must be bracketed: {text!r}")
    entries = s[1:-1].split(",")
    if not entries or not any(e.strip() for e in entries):
        raise ParseError(f"empty vector: {text!r}")
    return from_components(ring, [dict_parse_poly(ring, e) for e in entries])


def format_vector(v: PolyVec) -> str:
    return "[" + ", ".join(format_poly(c) for c in components(v)) + "]"
