"""Number-theory layer: examples plus the divisor-lattice identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzdgraph.errors import DomainError
from wzdgraph.numtheory import (
    divisors,
    euler_phi,
    exact_primes,
    factorize,
    is_prime,
    proper_divisors,
)


def phi_bruteforce(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def is_prime_bruteforce(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def is_prime_trial(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def divisors_trial(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


@pytest.mark.parametrize(
    "n, factors",
    [
        (18, ((2, 1), (3, 2))),
        (60, ((2, 2), (3, 1), (5, 1))),
        (97, ((97, 1),)),
        (1, ()),
        (2, ((2, 1),)),
    ],
)
def test_factorize_examples(n, factors):
    assert factorize(n).factors == factors


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)


@given(st.integers(min_value=1, max_value=100_000))
def test_factorize_roundtrip_and_invariants(n):
    f = factorize(n)
    assert f.reconstruct() == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(e >= 1 for _, e in f.factors)
    assert all(is_prime_trial(p) for p in primes)


@pytest.mark.parametrize("n, expected", [(9, 6), (1, 1), (30, 8), (2, 1), (97, 96)])
def test_euler_phi_examples(n, expected):
    assert euler_phi(n) == expected


def test_euler_phi_expected_values_come_from_direct_count():
    assert phi_bruteforce(30) == 8
    assert phi_bruteforce(9) == 6


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_coprime_count(n):
    assert euler_phi(n) == phi_bruteforce(n)


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_euler_phi_multiplicative_on_coprime_pairs(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


@pytest.mark.parametrize(
    "n, expected",
    [(18, [2, 3, 6, 9]), (4, [2]), (30, [2, 3, 5, 6, 10, 15]), (7, []), (12, [2, 3, 4, 6])],
)
def test_proper_divisors_examples(n, expected):
    assert proper_divisors(n) == expected


def test_proper_divisors_rejects_small_n():
    with pytest.raises(DomainError):
        proper_divisors(1)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_match_trial_division(n):
    assert divisors(n) == factorize(n).divisors() == divisors_trial(n)


@given(st.integers(min_value=2, max_value=5000))
def test_proper_divisors_shape(n):
    divs = proper_divisors(n)
    assert divs == sorted(set(divs))
    assert all(1 < d < n and n % d == 0 for d in divs)
    assert len(divs) == factorize(n).tau - 2


@pytest.mark.parametrize(
    "n, expected", [(18, {2}), (30, {2, 3, 5}), (36, set()), (12, {3}), (50, {2})]
)
def test_exact_primes_examples(n, expected):
    assert exact_primes(n) == expected


@given(st.integers(min_value=2, max_value=5000))
def test_exact_primes_definition(n):
    for p in exact_primes(n):
        assert n % p == 0 and n % (p * p) != 0
        # exponent one forces phi(n) = (p - 1) * phi(n / p) exactly
        assert euler_phi(n) == (p - 1) * euler_phi(n // p)


def test_divisor_totient_rejects_non_divisors():
    f = factorize(12)
    assert f.divisor_totient(4) == 2
    for m in (5, 24, 0, -3):
        with pytest.raises(DomainError):
            f.divisor_totient(m)


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=3000))
def test_totient_partition_identity(n):
    # summing class sizes phi(n/d) over proper divisors d counts the
    # nonzero zero-divisors of Z_n
    total = sum(euler_phi(n // d) for d in proper_divisors(n))
    assert total == n - euler_phi(n) - 1


@given(st.integers(min_value=0, max_value=10_000))
def test_is_prime_matches_bruteforce(n):
    assert is_prime(n) == is_prime_bruteforce(n)
