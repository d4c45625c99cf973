"""Tests for residue-ring arithmetic, element order, and p-adic digits."""

import pytest
from hypothesis import given, strategies as st

from pgroebner import MixedRings, NotAUnit, RingElem, Zpr, order, p_adic_expand, unit_inverse
from pgroebner.ring import _MAX_PRIME, _is_prime

# every ring with modulus <= 81, for exhaustive checks
SMALL_RINGS = [
    Zpr(p, r)
    for p, r in [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 1), (3, 2), (3, 3), (3, 4),
        (5, 1), (5, 2),
        (7, 1), (7, 2),
        (11, 1), (13, 1),
    ]
]


def subgroup_size(ring, a):
    """Oracle: size of the additive subgroup generated by a, by enumeration."""
    seen = set()
    x = 0
    while True:
        x = ring.add(x, a)
        if x in seen:
            break
        seen.add(x)
    return len(seen | {0})


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Zpr(4, 2)
    with pytest.raises(ValueError):
        Zpr(6, 1)
    with pytest.raises(ValueError):
        Zpr(3, 0)
    with pytest.raises(ValueError):
        Zpr(2, 64)  # modulus exceeds the supported width
    with pytest.raises(ValueError):
        Zpr((1 << 16) + 1, 1)  # beyond the supported prime range


def test_is_prime_agrees_with_a_sieve():
    sieve = [False, False] + [True] * (_MAX_PRIME - 1)
    for d in range(2, 257):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, _MAX_PRIME + 1, d))
    assert [_is_prime(n) for n in range(_MAX_PRIME + 1)] == sieve
    assert [_is_prime.__wrapped__(n) for n in range(_MAX_PRIME + 1)] == sieve


def test_each_prime_is_tested_once_and_only_in_range():
    _is_prime.cache_clear()
    Zpr(65521, 1)
    Zpr(65521, 2)
    info = _is_prime.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for p in (-7, -2, 0, 1, (1 << 16) + 1, 1 << 40):
        with pytest.raises(ValueError, match="p must be a prime"):
            Zpr(p, 1)
    assert _is_prime.cache_info().currsize == 1


def test_order_examples():
    z9 = Zpr(3, 2)
    assert z9.ord(1) == 2
    assert z9.ord(3) == 1
    assert z9.ord(0) == 0
    assert z9.ord(6) == 1


def test_order_matches_subgroup_size_oracle():
    for ring in SMALL_RINGS:
        for a in range(ring.modulus):
            assert ring.p ** ring.ord(a) == subgroup_size(ring, a)


def test_p_adic_examples():
    assert Zpr(3, 2).digits(8) == (2, 2)
    assert Zpr(3, 2).digits(0) == (0, 0)
    assert Zpr(2, 3).digits(5) == (1, 0, 1)


def test_p_adic_round_trip_exhaustive():
    for ring in SMALL_RINGS:
        for a in range(ring.modulus):
            ds = ring.digits(a)
            assert len(ds) == ring.r
            assert all(0 <= d < ring.p for d in ds)
            assert ring.from_digits(ds) == a


def test_unit_inverse_examples():
    z9 = Zpr(3, 2)
    assert z9.inv(2) == 5
    assert z9.inv(1) == 1
    with pytest.raises(NotAUnit):
        z9.inv(3)


def test_unit_inverse_exhaustive():
    for ring in SMALL_RINGS:
        for a in range(ring.modulus):
            if ring.ord(a) == ring.r:
                assert ring.mul(a, ring.inv(a)) == 1
            else:
                with pytest.raises(NotAUnit):
                    ring.inv(a)


def test_arithmetic_examples():
    z9 = Zpr(3, 2)
    assert z9.add(7, 5) == 3
    assert z9.mul(8, 8) == 1
    assert Zpr(2, 3).neg(3) == 5


def test_order_of_products_exhaustive():
    # ord(a*b) == max(0, ord(a) + ord(b) - r) for nonzero a, b
    for ring in SMALL_RINGS:
        for a in range(1, ring.modulus):
            for b in range(1, ring.modulus):
                expected = max(0, ring.ord(a) + ring.ord(b) - ring.r)
                assert ring.ord(ring.mul(a, b)) == expected


def test_p_power_annihilation():
    for ring in SMALL_RINGS:
        for a in range(1, ring.modulus):
            k = ring.ord(a)
            assert ring.mul(ring.p**k, a) == 0
            assert ring.mul(ring.p ** (k - 1), a) != 0


class TestRingElem:
    def test_reduction_and_ops(self):
        z9 = Zpr(3, 2)
        a = RingElem(z9, 7)
        b = RingElem(z9, 5)
        assert (a + b).value == 3
        assert (a - b).value == 2
        assert (a * b).value == 8
        assert (-RingElem(Zpr(2, 3), 3)).value == 5
        assert RingElem(z9, -3).value == 6
        assert int(a) == 7

    def test_free_function_forms(self):
        z9 = Zpr(3, 2)
        assert order(RingElem(z9, 3)) == 1
        assert p_adic_expand(RingElem(z9, 8)) == (2, 2)
        assert unit_inverse(RingElem(z9, 2)).value == 5
        with pytest.raises(NotAUnit):
            unit_inverse(RingElem(z9, 6))

    def test_mixed_rings_rejected(self):
        a = RingElem(Zpr(3, 2), 1)
        b = RingElem(Zpr(5, 1), 1)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(MixedRings):
                op()

    def test_int_coercion_stays_in_ring(self):
        a = RingElem(Zpr(3, 2), 8)
        assert (a + 1).value == 0
        assert (2 * a).value == 7


@given(st.integers(), st.integers())
def test_ops_agree_with_integer_arithmetic(x, y):
    ring = Zpr(3, 3)
    assert ring.add(ring.reduce(x), ring.reduce(y)) == (x + y) % 27
    assert ring.mul(ring.reduce(x), ring.reduce(y)) == (x * y) % 27


@given(st.integers(min_value=0, max_value=80))
def test_digits_are_canonical(a):
    ring = Zpr(3, 4)
    ds = ring.digits(a)
    assert sum(d * 3**i for i, d in enumerate(ds)) == a % 81
