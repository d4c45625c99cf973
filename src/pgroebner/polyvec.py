"""Monomials, positional term orders, and polynomial vectors over Z_{p^r}.

A monomial x^alpha*e_pos is a degree together with a 1-based position in the
ambient vector space Z_{p^r}[x]^q.  Two total orders are provided:

* TOP (term over position): compare degrees first; on ties the *smaller*
  position wins, so x^2*e_1 > x^2*e_2.
* POT (position over term): compare positions first (smaller position is
  larger); on ties compare degrees.

`Poly` is a scalar polynomial in Z_{p^r}[x] held as an ascending coefficient
tuple; `PolyVec` is a vector of such polynomials held sparsely as a map from
monomials to nonzero canonical residues.  Both are immutable values: every
operation returns a new object, so they are safe to share freely.

Text grammar (used by the CLI and fixtures)::

    POLY   := TERM (('+'|'-') TERM)*          e.g.  x^5+4x^4+7x
    TERM   := COEFF | COEFF 'x' | COEFF 'x^' EXP | 'x' | 'x^' EXP
    EXP    := decimal integer <= MAX_EXPONENT
    VECTOR := '[' POLY (',' POLY)* ']'
    MATRIX := one VECTOR per line ('#' lines and blank lines ignored)

Whitespace is insignificant; '-' and unicode minus are accepted on input
coefficients.  Output is canonical: descending degrees, '+'-joined terms,
coefficients as canonical residues, never a sign.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, MixedRings, ParseError, ZeroVector
from .ring import Zpr


class Monomial(NamedTuple):
    """x^alpha * e_pos with alpha >= 0 and 1-based position pos."""

    alpha: int
    pos: int

    def shifted(self, gamma: int) -> "Monomial":
        return Monomial(self.alpha + gamma, self.pos)

    def divides(self, other: "Monomial") -> bool:
        return self.pos == other.pos and self.alpha <= other.alpha


class MonomialOrder(enum.Enum):
    """The TOP and POT total orders on monomials."""

    TOP = "TOP"
    POT = "POT"

    def key(self, m: Monomial) -> tuple[int, int]:
        """Sort key: larger key means larger monomial."""
        if self is MonomialOrder.TOP:
            return (m.alpha, -m.pos)
        return (-m.pos, m.alpha)

    def compare(self, x: Monomial, y: Monomial) -> int:
        """-1, 0, or 1 as x <, =, > y."""
        kx, ky = self.key(x), self.key(y)
        return (kx > ky) - (kx < ky)

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)


TOP = MonomialOrder.TOP
POT = MonomialOrder.POT


def compare(order: MonomialOrder, x: Monomial, y: Monomial) -> int:
    """-1, 0, or 1 as x is below, equal to, or above y in the given order."""
    return order.compare(x, y)


class Poly:
    """A scalar polynomial over Z_{p^r}; immutable, hashable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Zpr, coeffs: Iterable[int] = ()):
        cs = [ring.reduce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring: Zpr) -> "Poly":
        return cls(ring)

    @classmethod
    def constant(cls, ring: Zpr, c: int) -> "Poly":
        return cls(ring, (c,))

    @classmethod
    def monomial(cls, ring: Zpr, c: int, alpha: int) -> "Poly":
        return cls(ring, (0,) * alpha + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead_coeff(self) -> int:
        if not self.coeffs:
            raise ZeroVector("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _check(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise MixedRings(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, (self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, (self.coeff(k) - other.coeff(k) for k in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(self.ring, (-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.ring)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(self.ring, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.ring, (c * a for a in self.coeffs))

    def shift(self, gamma: int) -> "Poly":
        """Multiply by x^gamma."""
        if self.is_zero():
            return self
        return Poly(self.ring, (0,) * gamma + self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.ring!r}, {format_poly(self)!r})"


class PolyVec:
    """An element of Z_{p^r}[x]^q, stored sparsely as monomial -> residue."""

    __slots__ = ("ring", "q", "terms")

    def __init__(self, ring: Zpr, q: int, terms: dict[Monomial, int] | None = None):
        if q < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {q}")
        clean: dict[Monomial, int] = {}
        for mono, c in (terms or {}).items():
            if not (1 <= mono.pos <= q) or mono.alpha < 0:
                raise DimensionMismatch(f"monomial {mono} outside ambient space q={q}")
            c = ring.reduce(c)
            if c:
                clean[mono] = c
        self.ring = ring
        self.q = q
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ring: Zpr, q: int) -> "PolyVec":
        return cls(ring, q)

    @classmethod
    def from_components(cls, ring: Zpr, components: list[Poly]) -> "PolyVec":
        terms: dict[Monomial, int] = {}
        for pos, poly in enumerate(components, start=1):
            if poly.ring != ring:
                raise MixedRings(f"{ring} vs {poly.ring}")
            for alpha, c in enumerate(poly.coeffs):
                if c:
                    terms[Monomial(alpha, pos)] = c
        return cls(ring, len(components), terms)

    def component(self, pos: int) -> Poly:
        if not (1 <= pos <= self.q):
            raise DimensionMismatch(f"position {pos} outside [1, {self.q}]")
        coeffs: dict[int, int] = {}
        for mono, c in self.terms.items():
            if mono.pos == pos:
                coeffs[mono.alpha] = c
        if not coeffs:
            return Poly(self.ring)
        top = max(coeffs)
        return Poly(self.ring, (coeffs.get(k, 0) for k in range(top + 1)))

    def components(self) -> list[Poly]:
        return [self.component(i) for i in range(1, self.q + 1)]

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> int:
        return self.terms.get(mono, 0)

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Monomial, int]]:
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def _check(self, other: "PolyVec") -> None:
        if self.ring != other.ring:
            raise MixedRings(f"{self.ring} vs {other.ring}")
        if self.q != other.q:
            raise DimensionMismatch(f"q={self.q} vs q={other.q}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PolyVec") -> "PolyVec":
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return PolyVec(self.ring, self.q, terms)

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) - c
        return PolyVec(self.ring, self.q, terms)

    def __neg__(self) -> "PolyVec":
        return PolyVec(self.ring, self.q, {m: -c for m, c in self.terms.items()})

    def scale(self, c: int) -> "PolyVec":
        return PolyVec(self.ring, self.q, {m: c * v for m, v in self.terms.items()})

    def term_mul(self, c: int, gamma: int) -> "PolyVec":
        """Multiply by the scalar term c * x^gamma."""
        return PolyVec(
            self.ring, self.q, {m.shifted(gamma): c * v for m, v in self.terms.items()}
        )

    def poly_mul(self, a: Poly) -> "PolyVec":
        """Multiply by the scalar polynomial a."""
        return combine([a], [self])

    # -- leading data under an order ---------------------------------------------

    def lm(self, order: MonomialOrder) -> Monomial:
        """Leading monomial; raises ZeroVector on the zero vector."""
        if not self.terms:
            raise ZeroVector("zero vector has no leading monomial")
        return max(self.terms, key=order.key)

    def lt(self, order: MonomialOrder) -> tuple[int, Monomial]:
        m = self.lm(order)
        return self.terms[m], m

    def lc(self, order: MonomialOrder) -> int:
        return self.terms[self.lm(order)]

    def lpos(self, order: MonomialOrder) -> int:
        return self.lm(order).pos

    def deg(self, order: MonomialOrder) -> int:
        return self.lm(order).alpha

    def ord(self, order: MonomialOrder) -> int:
        """Order of the leading coefficient."""
        return self.ring.ord(self.lc(order))

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyVec)
            and self.ring == other.ring
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.q, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"PolyVec({self.ring!r}, {format_vector(self)!r})"


def combine(coeffs: Sequence[Poly], vectors: Sequence[PolyVec]) -> PolyVec:
    """The combination sum a_i * v_i with scalar polynomial coefficients a_i."""
    if not vectors or len(coeffs) != len(vectors):
        raise DimensionMismatch(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    ring, q = vectors[0].ring, vectors[0].q
    terms: dict[Monomial, int] = {}
    for a, v in zip(coeffs, vectors):
        if a.ring != ring or v.ring != ring:
            raise MixedRings(f"{ring} vs {a.ring} and {v.ring}")
        if v.q != q:
            raise DimensionMismatch(f"q={q} vs q={v.q}")
        for gamma, c in enumerate(a.coeffs):
            if c:
                for mono, x in v.terms.items():
                    key = mono.shifted(gamma)
                    terms[key] = terms.get(key, 0) + c * x
    return PolyVec(ring, q, terms)


# -- text grammar ----------------------------------------------------------------------

# Exponents are stored densely, so x^N costs N+1 slots; larger ones are rejected.
MAX_EXPONENT = 100_000

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(x(?:\^(\d+))?)?$")


def _clean(text: str) -> str:
    return re.sub(r"\s+", "", text).replace("−", "-")


def parse_poly(ring: Zpr, text: str) -> Poly:
    """Parse the POLY grammar; accepts '-' separated terms and signed coefficients."""
    s = _clean(text)
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


def format_poly(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    pieces = []
    for alpha in range(poly.degree, -1, -1):
        c = poly.coeff(alpha)
        if not c:
            continue
        if alpha == 0:
            pieces.append(str(c))
        else:
            x = "x" if alpha == 1 else f"x^{alpha}"
            pieces.append(x if c == 1 else f"{c}{x}")
    return "+".join(pieces)


def parse_vector(ring: Zpr, text: str) -> PolyVec:
    """Parse the VECTOR grammar '[POLY, ..., POLY]'."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"vector must be bracketed: {text!r}")
    entries = s[1:-1].split(",")
    if not entries or not any(e.strip() for e in entries):
        raise ParseError(f"empty vector: {text!r}")
    return PolyVec.from_components(ring, [parse_poly(ring, e) for e in entries])


def format_vector(v: PolyVec) -> str:
    return "[" + ", ".join(format_poly(c) for c in v.components()) + "]"


def parse_matrix(ring: Zpr, text: str) -> list[PolyVec]:
    """Parse one VECTOR per line; blank lines and '#' comment lines are skipped."""
    rows: list[PolyVec] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(parse_vector(ring, line))
    if not rows:
        raise ParseError("no vectors found")
    qs = {r.q for r in rows}
    if len(qs) > 1:
        raise ParseError(f"rows have inconsistent dimensions {sorted(qs)}")
    return rows


def format_matrix(rows: list[PolyVec]) -> str:
    return "\n".join(format_vector(r) for r in rows)
