"""Textbook Berlekamp-Massey over a prime field Z_p.

An oracle for the shortest recurrence length that shares no code with
pgroebner: it works on plain ints and never builds a module or a basis.
"""

from __future__ import annotations


def berlekamp_massey(
    seq: list[int] | tuple[int, ...], p: int
) -> tuple[int, list[int], list[int]]:
    """Linear complexity of seq over Z_p, a connection polynomial, the profile.

    Returns (L, c, profile) with c = [1, c_1, ..., c_L] such that
    s_j + c_1 s_{j-1} + ... + c_L s_{j-L} == 0 (mod p) for L <= j < len(seq),
    and profile[k] the linear complexity of the first k + 1 terms.
    """
    s = [v % p for v in seq]
    c = [1]
    b = [1]
    length = 0
    shift = 1
    last = 1
    profile = []
    for n, value in enumerate(s):
        d = value
        for i in range(1, length + 1):
            d += c[i] * s[n - i]
        d %= p
        if d == 0:
            shift += 1
        else:
            coef = d * pow(last, -1, p) % p
            prev = list(c)
            c += [0] * (len(b) + shift - len(c))
            for i, bi in enumerate(b):
                c[i + shift] = (c[i + shift] - coef * bi) % p
            if 2 * length <= n:
                length = n + 1 - length
                b = prev
                last = d
                shift = 1
            else:
                shift += 1
        profile.append(length)
    c += [0] * (length + 1 - len(c))
    return length, c[: length + 1], profile


def forward_coeffs(c: list[int]) -> tuple[int, ...]:
    """Ascending coefficients of the forward recurrence x^L * C(1/x).

    This is the library's orientation: the coefficient of x^L multiplies
    the latest term, and it is c_0 = 1, so the result is monic.
    """
    return tuple(reversed(c))


def profile_jumps(profile: list[int]) -> int:
    """Number of length changes in a linear complexity profile."""
    return sum(1 for a, b in zip([0] + profile, profile) if a != b)
