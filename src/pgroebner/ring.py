"""Exact arithmetic in the residue ring Z_{p^r} for a prime p.

The ring is described by a `Zpr` object; elements are canonical integer
residues in [0, p^r).  `Zpr` exposes the arithmetic on plain ints, which is
what the polynomial layers use internally.  `RingElem` is a thin immutable
wrapper that carries its ring, overloads the arithmetic operators, and
rejects mixed-ring operations.

Every nonzero residue factors uniquely as unit * p^v; the *order* of an
element is r - v (the additive subgroup it generates has p^(r-v) elements),
so units have order r and 0 has order 0.  Every element has a unique p-adic
digit expansion a = d_0 + d_1*p + ... + d_{r-1}*p^(r-1) with digits in
{0, ..., p-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MixedRings, NotAUnit

_MAX_PRIME = 1 << 16
_MAX_MODULUS = 1 << 63


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Zpr:
    """The ring Z_{p^r}, p prime, r >= 1."""

    p: int
    r: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not isinstance(self.r, int):
            raise TypeError("p and r must be ints")
        if self.p > _MAX_PRIME or not _is_prime(self.p):
            raise ValueError(f"p must be a prime <= 2^16, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        # p >= 2, so r >= 63 is already too wide; test it before computing p**r
        if self.r >= _MAX_MODULUS.bit_length() - 1 or self.p ** self.r >= _MAX_MODULUS:
            raise ValueError(f"modulus {self.p}^{self.r} exceeds the supported width")
        object.__setattr__(self, "modulus", self.p ** self.r)

    def __repr__(self) -> str:
        return f"Zpr({self.p}, {self.r})"

    def __str__(self) -> str:
        return f"Z_{self.modulus}"

    # -- arithmetic on canonical int residues --------------------------------

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    # -- p-adic structure -----------------------------------------------------

    def vp(self, x: int) -> int:
        """p-adic valuation of x in [0, r]; vp(0) = r."""
        x = self.reduce(x)
        if x == 0:
            return self.r
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def ord(self, x: int) -> int:
        """Order of x: the additive subgroup generated by x has p^ord(x) elements."""
        return self.r - self.vp(x)

    def is_unit(self, x: int) -> bool:
        return self.reduce(x) % self.p != 0

    def unit_part(self, x: int) -> int:
        """The unit u with x = u * p^vp(x); requires x != 0."""
        x = self.reduce(x)
        if x == 0:
            raise ValueError("0 has no unit part")
        return x // (self.p ** self.vp(x))

    def inv(self, x: int) -> int:
        """Multiplicative inverse; raises NotAUnit for zero divisors."""
        x = self.reduce(x)
        if not self.is_unit(x):
            raise NotAUnit(f"{x} is not a unit in {self}")
        # extended Euclid on (x, p^r); works uniformly for all p, r
        g, s, _ = _xgcd(x, self.modulus)
        assert g == 1
        return s % self.modulus

    def digits(self, x: int) -> tuple[int, ...]:
        """p-adic digit expansion (d_0, ..., d_{r-1}) with sum d_l * p^l = x."""
        x = self.reduce(x)
        out = []
        for _ in range(self.r):
            x, d = divmod(x, self.p)
            out.append(d)
        return tuple(out)

    def from_digits(self, digits: tuple[int, ...] | list[int]) -> int:
        x = 0
        for d in reversed(digits):
            x = x * self.p + d
        return self.reduce(x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


@dataclass(frozen=True)
class RingElem:
    """An element of Z_{p^r}, stored as its canonical residue."""

    ring: Zpr
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.ring.reduce(self.value))

    def _coerce(self, other: "RingElem | int") -> int:
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise MixedRings(f"{self.ring} vs {other.ring}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "RingElem | int") -> "RingElem":
        v = self._coerce(other)
        return RingElem(self.ring, self.value + v)

    __radd__ = __add__

    def __sub__(self, other: "RingElem | int") -> "RingElem":
        v = self._coerce(other)
        return RingElem(self.ring, self.value - v)

    def __rsub__(self, other: int) -> "RingElem":
        return RingElem(self.ring, other - self.value)

    def __mul__(self, other: "RingElem | int") -> "RingElem":
        v = self._coerce(other)
        return RingElem(self.ring, self.value * v)

    __rmul__ = __mul__

    def __neg__(self) -> "RingElem":
        return RingElem(self.ring, -self.value)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def order(self) -> int:
        return self.ring.ord(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inv(self.value))

    def digits(self) -> tuple[int, ...]:
        return self.ring.digits(self.value)


def order(a: RingElem) -> int:
    """Order of a: the additive subgroup <a> has p^order(a) elements."""
    return a.order()


def p_adic_expand(a: RingElem) -> tuple[int, ...]:
    """Unique digit expansion of a with digits in {0, ..., p-1}."""
    return a.digits()


def unit_inverse(a: RingElem) -> RingElem:
    """Inverse of a unit; raises NotAUnit if order(a) < r."""
    return a.inverse()
