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
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, MixedRings, ParseError, ZeroVector
from .ring import Zpr


# Shifted monomials and trusted vectors are built on hot paths; these skip
# the Python-level NamedTuple and PolyVec constructors.
_new_tuple = tuple.__new__
_new_object = object.__new__

_pos_of = itemgetter(1)


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
        m = ring.modulus
        cs = [c % m for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, ring: Zpr, coeffs: tuple[int, ...]) -> "Poly":
        """A polynomial that keeps coeffs itself, without copying or checking it.

        coeffs must be a tuple of residues in 0..p^r-1 whose last entry,
        if any, is nonzero; the public constructor reduces and strips.
        """
        f = _new_object(cls)
        f.ring = ring
        f.coeffs = coeffs
        return f

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
    """An element of Z_{p^r}[x]^q, stored sparsely as monomial -> residue.

    Immutability is load-bearing here: the leading data (lc, lm, ord(lc)) is
    computed on first request and cached once per order, so `terms` must
    never be mutated after construction.  The cache is not part of the value
    (`__eq__` and `__hash__` ignore it).
    """

    __slots__ = ("ring", "q", "terms", "_top", "_pot")

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
        self._top: tuple[int, Monomial, int] | None = None
        self._pot: tuple[int, Monomial, int] | None = None

    @classmethod
    def _trusted(cls, ring: Zpr, q: int, terms: dict[Monomial, int]) -> "PolyVec":
        """A vector over terms that are already canonical, without re-checking them.

        For the arithmetic below only: every key must be a Monomial with
        alpha >= 0 and 1 <= pos <= q, and every value a residue in
        1..p^r-1.  The public constructor checks and reduces all of that.
        """
        v = _new_object(cls)
        v.ring = ring
        v.q = q
        v.terms = terms
        v._top = None
        v._pot = None
        return v

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
        return self.components()[pos - 1]

    def components(self) -> list[Poly]:
        """The q components, each row built from its nonzero terms by ascending degree."""
        rows: list[list[int]] = [[] for _ in range(self.q)]
        for (alpha, pos), c in sorted(self.terms.items()):
            row = rows[pos - 1]
            row += [0] * (alpha - len(row)) + [c]
        return [Poly._trusted(self.ring, tuple(row)) for row in rows]

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> int:
        return self.terms.get(mono, 0)

    def _check(self, other: "PolyVec") -> None:
        if self.ring != other.ring:
            raise MixedRings(f"{self.ring} vs {other.ring}")
        if self.q != other.q:
            raise DimensionMismatch(f"q={self.q} vs q={other.q}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PolyVec") -> "PolyVec":
        return self.sub_term_mul(other, -1, 0)

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        return self.sub_term_mul(other, 1, 0)

    def __neg__(self) -> "PolyVec":
        return self.scale(-1)

    def scale(self, c: int) -> "PolyVec":
        m = self.ring.modulus
        terms = {mono: x for mono, v in self.terms.items() if (x := c * v % m)}
        return PolyVec._trusted(self.ring, self.q, terms)

    def term_mul(self, c: int, gamma: int) -> "PolyVec":
        """Multiply by the scalar term c * x^gamma."""
        if gamma < 0:  # left to the public checks: a term may fall below x^0
            return PolyVec(
                self.ring, self.q, {m.shifted(gamma): c * v for m, v in self.terms.items()}
            )
        m = self.ring.modulus
        terms = {
            _new_tuple(Monomial, (mono[0] + gamma, mono[1])): x
            for mono, v in self.terms.items()
            if (x := c * v % m)
        }
        return PolyVec._trusted(self.ring, self.q, terms)

    def sub_term_mul(self, other: "PolyVec", c: int, gamma: int) -> "PolyVec":
        """self - c * x^gamma * other, built in one pass."""
        self._check(other)
        if gamma < 0:
            return self - other.term_mul(c, gamma)
        m = self.ring.modulus
        terms = dict(self.terms)
        get, pop = terms.get, terms.pop
        for mono, v in other.terms.items():
            if gamma:
                mono = _new_tuple(Monomial, (mono[0] + gamma, mono[1]))
            x = (get(mono, 0) - c * v) % m
            if x:
                terms[mono] = x
            else:
                pop(mono, None)
        return PolyVec._trusted(self.ring, self.q, terms)

    def poly_mul(self, a: Poly) -> "PolyVec":
        """Multiply by the scalar polynomial a."""
        return combine([a], [self])

    # -- leading data under an order ---------------------------------------------

    def lead(self, order: MonomialOrder) -> tuple[int, Monomial, int]:
        """(lc, lm, ord(lc)), computed once per order; raises ZeroVector on zero."""
        if order is TOP:
            if self._top is None:
                self._top = self._scan(order)
            return self._top
        if self._pot is None:
            self._pot = self._scan(order)
        return self._pot

    def _scan(self, order: MonomialOrder) -> tuple[int, Monomial, int]:
        terms = self.terms
        if not terms:
            raise ZeroVector("zero vector has no leading monomial")
        if order is TOP:
            # the plain tuple maximum has the top degree but the largest
            # position there; TOP wants the smallest, so probe below it
            m = max(terms)
            alpha = m[0]
            for pos in range(1, m[1]):
                if (alpha, pos) in terms:
                    m = Monomial(alpha, pos)
                    break
        else:
            # POT wants the smallest position, then its top degree: one C-level
            # pass for the position instead of a key call per term
            pos = min(map(_pos_of, terms))
            m = max([mono for mono in terms if mono[1] == pos])
        c = terms[m]
        return c, m, self.ring.ord(c)

    def lm(self, order: MonomialOrder) -> Monomial:
        """Leading monomial; raises ZeroVector on the zero vector."""
        return self.lead(order)[1]

    def lt(self, order: MonomialOrder) -> tuple[int, Monomial]:
        c, m, _ = self.lead(order)
        return c, m

    def lc(self, order: MonomialOrder) -> int:
        return self.lead(order)[0]

    def lpos(self, order: MonomialOrder) -> int:
        return self.lead(order)[1].pos

    def deg(self, order: MonomialOrder) -> int:
        return self.lead(order)[1].alpha

    def ord(self, order: MonomialOrder) -> int:
        """Order of the leading coefficient."""
        return self.lead(order)[2]

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
