"""Monomials, positional term orders, and polynomial vectors over Z_{p^r}.

A monomial x^alpha*e_pos is a degree together with a 1-based position in the
ambient vector space Z_{p^r}[x]^q.  Two total orders are provided:

* TOP (term over position): compare degrees first; on ties the *smaller*
  position wins, so x^2*e_1 > x^2*e_2.
* POT (position over term): compare positions first (smaller position is
  larger); on ties compare degrees.

`Poly` is a scalar polynomial in Z_{p^r}[x] held as an ascending coefficient
tuple; `PolyVec` is a vector of such polynomials packed into ints, one per
block of BLOCK degrees, a W-bit slot per coefficient (Kronecker
substitution), so that an update f - c*x^gamma*g is a shift, a multiply, an
add and a slotwise reduction per block.  Both are immutable values: every
operation returns a new object, so they are safe to share freely.  A
PolyVec caches only its leading data, under the last order asked for, as
one (order, lead) pair replaced whole; its `terms` dict is built per call.

Text grammar (used by the CLI and fixtures)::

    POLY   := TERM (('+'|'-') TERM)*          e.g.  x^5+4x^4+7x
    TERM   := COEFF | COEFF 'x' | COEFF 'x^' EXP | 'x' | 'x^' EXP
    COEFF  := ASCII decimal digits
    EXP    := ASCII decimal digits, value <= MAX_EXPONENT
    VECTOR := '[' POLY (',' POLY)* ']'
    MATRIX := one VECTOR per line ('#' lines and blank lines ignored)

Whitespace is insignificant; '-' and unicode minus are accepted on input
coefficients.  Output is canonical: descending degrees, '+'-joined terms,
coefficients as canonical residues, never a sign.
"""

from __future__ import annotations

import enum
import functools
import re
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, MixedRings, ParseError, ZeroVector
from .ring import Zpr


# Leading monomials and trusted vectors are built on hot paths; these skip
# the Python-level NamedTuple and PolyVec constructors.
_new_tuple = tuple.__new__
_new_object = object.__new__

# Degrees per block of a packed PolyVec.
BLOCK = 256


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

    def key(self, m: tuple[int, int]) -> tuple[int, int]:
        """Sort key of a Monomial or an (alpha, pos) pair: larger key means larger monomial."""
        if self is MonomialOrder.TOP:
            return (m[0], -m[1])
        return (-m[1], m[0])

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
        return cls(ring, (c,)).shift(alpha)

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
        """Multiply by x^gamma; a term that would fall below x^0 raises DimensionMismatch."""
        if self.is_zero():
            return self
        if gamma < 0 and any(self.coeffs[:-gamma]):
            raise DimensionMismatch(f"x^{gamma} takes a term below x^0")
        return Poly(self.ring, (0,) * gamma + self.coeffs[max(0, -gamma) :])

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


class _Layout:
    """The packing of the vectors of one ring Z_m, m = p^r, and dimension q.

    A slot is W bits: W = 2r for p = 2, else W = s + bitlen(m) + 1 with
    s = 2 bitlen(m).  An update adds one product c*y of residues to a slot,
    which then holds below m^2 <= 2^W, so no slot carries into the next;
    `fold` brings every slot back to a residue.

    * p = 2: one AND with 2^r - 1 in every slot.
    * odd p: X - ((X*mu >> s) & qmask)*m, mu = floor(2^s / m), is a Barrett
      step in every slot at once.  X*mu < m*2^s stays in its slot; the
      shift leaves the quotient estimate in the low bitlen(m) bits, with
      the spill of the slot above one bit higher; as X < m^2 <= 2^s the
      estimate is low by at most one, so each slot ends in [0, 2m).  Adding
      K = 2^(W-1) - m sets the top bit of exactly the slots >= m, and m is
      subtracted there.

    The masks are made on first use, for 1, 2, 4, ... slots (degrees, up to
    one block, for the lane): a short int folds at the cost of its own
    length, each mask is under twice as long as the longest int folded,
    and ints longer than a block fold too.
    """

    __slots__ = ("q", "m", "W", "dw", "bw", "smask", "fold", "ord", "_p", "_k", "_mu",
                 "_folds", "_lanes")

    def __init__(self, ring: Zpr, q: int) -> None:
        p, r, m = ring.p, ring.r, ring.modulus
        self._p, self._k = p, m.bit_length()
        W = 2 * r if p == 2 else 3 * self._k + 1
        self.q, self.m, self.W = q, m, W
        self.dw = q * W  # bits per degree
        self.bw = BLOCK * self.dw  # bits per block
        self.smask = (1 << W) - 1
        self._folds: list = [None] * 64  # by bit length of a slot count: any int in memory
        self._lanes: list = [None] * ((BLOCK - 1).bit_length() + 1)
        if p == 2:
            self.fold = self._fold2
            self.ord = lambda c: r + 1 - (c & -c).bit_length()
        else:
            self._mu = (1 << 2 * self._k) // m
            self.fold = self._fold_odd

            def ord_(c: int) -> int:
                o = r
                while not c % p:
                    c //= p
                    o -= 1
                return o

            self.ord = ord_

    def _fold_masks(self, e: int):
        """The fold's masks over 2^e slots."""
        n, W, m = 1 << e, self.W, self.m

        def every_slot(v: int) -> int:
            return int(format(v, f"0{W}b") * n, 2)

        masks = self._folds[e] = (every_slot(m - 1) if self._p == 2 else (
            every_slot((1 << self._k) - 1), every_slot((1 << W - 1) - m), every_slot(1)))
        return masks

    def _fold2(self, x: int) -> int:
        e = ((x.bit_length() - 1) // self.W).bit_length()
        return x & (self._folds[e] or self._fold_masks(e))

    def _fold_odd(self, x: int) -> int:
        if not x:
            return 0
        W, m = self.W, self.m
        e = ((x.bit_length() - 1) // W).bit_length()
        qmask, K, ones = self._folds[e] or self._fold_masks(e)
        x -= ((x * self._mu >> 2 * self._k) & qmask) * m
        return x - ((x + K) >> W - 1 & ones) * m

    def lane(self, x: int) -> int:
        """The mask of the slots of position q, over as many whole degrees as x."""
        e = ((x.bit_length() - 1) // self.dw).bit_length()
        lane = self._lanes[e]
        if lane is None:
            degrees = min(1 << e, BLOCK)
            lane = self._lanes[e] = int(format(self.smask, f"0{self.dw}b") * degrees, 2)
        return lane

    def blocks(self, x: int) -> tuple[int, ...]:
        """The blocks of a vector packed into the one int x."""
        return tuple(x >> i & (1 << self.bw) - 1 for i in range(0, x.bit_length(), self.bw))

    def positions(self, blocks: Sequence[int]) -> set[int]:
        """The positions of the nonzero slots of the blocks, one pass over their OR per position."""
        x = 0
        for b in blocks:
            x |= b
        lane, out = self.lane(x), set()
        while x:
            s = (x.bit_length() - 1) // self.W % self.q  # the top slot's, of position q - s
            out.add(self.q - s)
            x &= ~(lane << s * self.W)
        return out

    def pack(self, rows: Sequence[Sequence[int]]) -> int:
        """The block whose degree a has the residues rows[a], position 1 first."""
        fmt = f"0{self.W}b"
        return int("".join([format(c, fmt) for row in reversed(rows) for c in row]), 2)

    def bits(self, blocks: Sequence[int]) -> str:
        """The blocks in binary, top degree first, whole degrees of dw bits each."""
        if not blocks:
            return ""
        top = blocks[-1]
        width = -(-top.bit_length() // self.dw) * self.dw
        return "".join([format(top, "b").zfill(width)]
                       + [format(x, "b").zfill(self.bw) for x in reversed(blocks[:-1])])


# one layout per (ring, q): vectors share it, and `==` compares it by identity
_layout = functools.cache(_Layout)


def _strip(blocks: list[int]) -> tuple[int, ...]:
    while blocks and not blocks[-1]:
        blocks.pop()
    return tuple(blocks)


def _axpy(lay: _Layout, f: tuple[int, ...], g: tuple[int, ...], c: int,
          gamma: int) -> tuple[int, ...]:
    """The blocks of f + c * x^gamma * g, for a residue 0 < c < m and gamma >= 0.

    Only the blocks that x^gamma * g reaches are added to and folded; the
    other blocks of f are reused as they are.
    """
    k, j = divmod(gamma, BLOCK)
    sh = j * lay.dw
    # one block in and one out, as for most vectors: no block loop
    if k == 0 and len(g) == 1 and len(f) <= 1 and g[0].bit_length() + sh <= lay.bw:
        x = lay.fold((f[0] if f else 0) + (c * g[0] << sh))
        return (x,) if x else ()
    out = list(f)
    if len(out) <= len(g) + k:
        out += [0] * (len(g) + k + 1 - len(out))
    bw, fold = lay.bw, lay.fold
    carry = 0  # the part of the previous block of g shifted into this one
    for i, y in enumerate(g, k):
        if y or carry:
            y = c * y << sh
            low = carry
            carry = y >> bw
            out[i] = fold(out[i] + (y ^ carry << bw) + low)
    if carry:
        out[len(g) + k] = fold(out[len(g) + k] + carry)
    return _strip(out)


def _lane_top(lay: _Layout, blocks: tuple[int, ...], pos: int,
              below: int | None = None) -> tuple[int, int] | None:
    """(c, alpha) of the top term c*x^alpha*e_pos of the blocks with alpha < below, or None."""
    shift = (lay.q - pos) * lay.W  # brings position pos to the slots of position q
    top = len(blocks) * BLOCK
    i, a = divmod(top if below is None else min(below, top), BLOCK)
    x = blocks[i] >> shift & (1 << a * lay.dw) - 1 if a else 0
    x &= lay.lane(x)
    while not x and i:
        i -= 1
        x = blocks[i] >> shift
        x &= lay.lane(x)
    if not x:
        return None
    j = (x.bit_length() - 1) // lay.W
    return x >> j * lay.W & lay.smask, i * BLOCK + j // lay.q


def _lead(lay: _Layout, blocks: tuple[int, ...], order: MonomialOrder) -> tuple[int, Monomial, int]:
    """(lc, lm, ord(lc)) of nonzero blocks: the one scan of `PolyVec.lead`."""
    q, W = lay.q, lay.W
    if order is TOP or q == 1:
        x = blocks[-1]
        j = (x.bit_length() - 1) // W
        a, s = divmod(j, q)
        c, alpha, pos = x >> j * W & lay.smask, (len(blocks) - 1) * BLOCK + a, q - s
    else:
        pos = 1
        while not (top := _lane_top(lay, blocks, pos)):
            pos += 1
        c, alpha = top
    return c, _new_tuple(Monomial, (alpha, pos)), lay.ord(c)


class PolyVec:
    """An element of Z_{p^r}[x]^q, stored as packed ints, one per block of degrees.

    Block b holds the degrees b*BLOCK to b*BLOCK + BLOCK - 1; the
    coefficient of x^alpha*e_pos sits in slot (alpha mod BLOCK)*q + (q - pos)
    of block alpha // BLOCK, W bits per slot (see `_Layout`).  Slot order is
    TOP order, so the TOP leading term is the top slot of the last block;
    under POT each position's lane mask is tried, position 1 first.  The
    tuple `_blocks` has no trailing zero block (the zero vector is ()) and
    every slot holds a canonical residue, so equal vectors have equal tuples.

    Why blocks and not one int per vector: an update f - c*x^gamma*g then
    costs what the blocks of g cost, not what the degree of f does.  `gb` on
    [x^D+1, x], [x, 1], [x^(D-1), x^5+3] with D = 10^5 takes some 10^5
    reduction steps by short reducers.  On a 2-vCPU VM under Python 3.11 it
    took 1.8-2.1 s over Z_256 and 3.9-4.5 s over Z_65521 with blocks (2.4-2.7
    and 1.9-2.1 s with monomial-keyed dicts); with one int per vector, each
    step rewriting all of f, it took 14 s over Z_256 and had not finished
    after 150 s over Z_65521.

    Immutability is load-bearing: the leading data (lc, lm, ord(lc)) is
    computed on request and cached as one (order, lead) pair, rescanned
    when another order is asked for.  The pair is replaced in one
    assignment, so a reader on another thread never sees one order's lead
    under the other order.  The cache is not part of the value (`__eq__`
    and `__hash__` ignore it).  `terms` builds a new dict on each call.
    """

    __slots__ = ("ring", "q", "_lay", "_blocks", "_cache")

    def __init__(self, ring: Zpr, q: int, terms: dict[Monomial, int] | None = None):
        if q < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {q}")
        rows: dict[int, list[list[int]]] = {}  # block -> its degrees' residues
        for mono, c in (terms or {}).items():
            if not (1 <= mono.pos <= q) or mono.alpha < 0:
                raise DimensionMismatch(f"monomial {mono} outside ambient space q={q}")
            c = ring.reduce(c)
            if c:
                b, a = divmod(mono.alpha, BLOCK)
                block_rows = rows.setdefault(b, [])
                block_rows += [[0] * q for _ in range(a + 1 - len(block_rows))]
                block_rows[a][mono.pos - 1] = c
        self.ring = ring
        self.q = q
        self._lay = _layout(ring, q)
        blocks = [0] * (max(rows, default=-1) + 1)
        for b, block_rows in rows.items():
            blocks[b] = self._lay.pack(block_rows)
        self._blocks = tuple(blocks)
        self._cache = (None, None)

    def _like(self, blocks: tuple[int, ...], order: MonomialOrder | None = None,
              lead: tuple[int, Monomial, int] | None = None) -> "PolyVec":
        """A vector of this ring and dimension over canonical blocks, unchecked; lead is cached."""
        v = _new_object(PolyVec)
        v.ring = self.ring
        v.q = self.q
        v._lay = self._lay
        v._blocks = blocks
        v._cache = (None, None) if lead is None else (order, lead)
        return v

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ring: Zpr, q: int) -> "PolyVec":
        return cls(ring, q)

    @classmethod
    def from_components(cls, ring: Zpr, components: list[Poly]) -> "PolyVec":
        for poly in components:
            if poly.ring != ring:
                raise MixedRings(f"{ring} vs {poly.ring}")
        zero = cls(ring, len(components))
        rows = [*zip_longest(*[f.coeffs for f in components], fillvalue=0)]
        chunks = [rows[b:b + BLOCK] for b in range(0, len(rows), BLOCK)]
        return zero._like(_strip([zero._lay.pack(c) if any(map(any, c)) else 0 for c in chunks]))

    def component(self, pos: int) -> Poly:
        if not (1 <= pos <= self.q):
            raise DimensionMismatch(f"position {pos} outside [1, {self.q}]")
        return self._component(self._lay.bits(self._blocks), pos)

    def components(self) -> list[Poly]:
        """The q components, each row built from its nonzero terms by ascending degree."""
        bits = self._lay.bits(self._blocks)
        return [self._component(bits, pos) for pos in range(1, self.q + 1)]

    def _component(self, bits: str, pos: int) -> Poly:
        """Component pos read from the binary text of the blocks (`_Layout.bits`)."""
        W = self._lay.W
        coeffs = [int(bits[i:i + W], 2) for i in range((pos - 1) * W, len(bits), self._lay.dw)]
        top = next((k for k, c in enumerate(coeffs) if c), len(coeffs))  # zeros above deg
        return Poly._trusted(self.ring, tuple(coeffs[:top - 1:-1] if top else coeffs[::-1]))

    @property
    def terms(self) -> dict[Monomial, int]:
        """The nonzero terms as monomial -> residue, in a new dict built from the blocks."""
        return {
            Monomial(alpha, pos): c
            for pos, f in enumerate(self.components(), 1)
            for alpha, c in enumerate(f.coeffs)
            if c
        }

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._blocks

    def coeff(self, mono: Monomial) -> int:
        alpha, pos = mono
        b, a = divmod(alpha, BLOCK)
        if not (1 <= pos <= self.q and 0 <= b < len(self._blocks)):
            return 0
        lay = self._lay
        return self._blocks[b] >> (a * self.q + self.q - pos) * lay.W & lay.smask

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

    def scale(self, c: int, order: MonomialOrder | None = None,
              lead: tuple[int, Monomial, int] | None = None) -> "PolyVec":
        """c * self, with lead, if given, cached as its leading data under order."""
        fold = self._lay.fold
        c %= self._lay.m
        return self._like(_strip([fold(c * x) for x in self._blocks]), order, lead)

    def term_mul(self, c: int, gamma: int) -> "PolyVec":
        """Multiply by the scalar term c * x^gamma."""
        c %= self._lay.m
        if c and gamma < 0:  # left to the public checks: a term may fall below x^0
            return PolyVec(
                self.ring, self.q, {m.shifted(gamma): c * v for m, v in self.terms.items()}
            )
        return self._like(_axpy(self._lay, (), self._blocks, c, gamma) if c else ())

    def sub_term_mul(self, other: "PolyVec", c: int, gamma: int) -> "PolyVec":
        """self - c * x^gamma * other, in one pass over the blocks other reaches."""
        if other._lay is not self._lay:
            self._check(other)
        if gamma < 0:
            return self - other.term_mul(c, gamma)
        c = -c % self._lay.m
        if not (c and other._blocks):
            return self
        return self._like(_axpy(self._lay, self._blocks, other._blocks, c, gamma))

    def poly_mul(self, a: Poly) -> "PolyVec":
        """Multiply by the scalar polynomial a."""
        return combine([a], [self])

    # -- leading data under an order ---------------------------------------------

    def lead(self, order: MonomialOrder) -> tuple[int, Monomial, int]:
        """(lc, lm, ord(lc)), cached under the last order asked; raises ZeroVector on zero."""
        cached, lead = self._cache
        if cached is not order:
            lead = self._scan(order)
            self._cache = (order, lead)
        return lead

    def _scan(self, order: MonomialOrder) -> tuple[int, Monomial, int]:
        if not self._blocks:
            raise ZeroVector("zero vector has no leading monomial")
        return _lead(self._lay, self._blocks, order)

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
            and self._lay is other._lay
            and self._blocks == other._blocks
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.q, self._blocks))

    def __bool__(self) -> bool:
        return bool(self._blocks)

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"PolyVec({self.ring!r}, {format_vector(self)!r})"


def combine(coeffs: Sequence[Poly], vectors: Sequence[PolyVec]) -> PolyVec:
    """The combination sum a_i * v_i with scalar polynomial coefficients a_i."""
    if not vectors or len(coeffs) != len(vectors):
        raise DimensionMismatch(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    first = vectors[0]
    ring, q, lay = first.ring, first.q, first._lay
    acc: tuple[int, ...] = ()
    for a, v in zip(coeffs, vectors):
        if a.ring != ring or v.ring != ring:
            raise MixedRings(f"{ring} vs {a.ring} and {v.ring}")
        if v.q != q:
            raise DimensionMismatch(f"q={q} vs q={v.q}")
        if v._blocks:
            for gamma, c in enumerate(a.coeffs):
                if c:
                    acc = _axpy(lay, acc, v._blocks, c, gamma)
    return first._like(acc)


# -- text grammar ----------------------------------------------------------------------

# A Poly stores x^N as N+1 coefficients, and `components` rebuilds that many per
# position; a PolyVec packs x^N into N // BLOCK + 1 block ints, all but one 0.
# Larger exponents are rejected.
MAX_EXPONENT = 100_000

# [0-9], not \d: \d and int() also take other scripts' digits, and int() underscores.
# A term is c, c*, c*x^k or cx^k, with c and ^k optional around x; the
# lookahead keeps it nonempty, and every term after the first needs its sign.
_TERM = r"([+-]?)(?=[0-9x])(?:([0-9]+)\*?)?(x(?:\^([0-9]+))?)?"
_TERM_RE = re.compile(_TERM)
_POLY_RE = re.compile(rf"{_TERM}(?:(?=[+-]){_TERM})*")


def _clean(text: str) -> str:
    return re.sub(r"\s+", "", text).replace("−", "-")


def parse_poly(ring: Zpr, text: str) -> Poly:
    """Parse the POLY grammar; accepts '-' separated terms and signed coefficients."""
    s = _clean(text)
    if not s:
        raise ParseError("empty polynomial")
    if not _POLY_RE.fullmatch(s):
        raise ParseError(f"bad term in {text!r}")
    coeffs: dict[int, int] = {}
    for sign, c, x, k in _TERM_RE.findall(s):
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
