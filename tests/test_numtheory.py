"""Number-theory layer: examples plus the divisor-lattice identities."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzdgraph import numtheory
from wzdgraph.errors import DomainError
from wzdgraph.numtheory import PRIMALITY_LIMIT, divisors, euler_phi, factorize, is_prime

#: the smallest strong pseudoprime to the first 12 prime bases (2..37)
PSI_12 = 318665857834031151167461


def phi_bruteforce(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def is_prime_bruteforce(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def is_prime_trial(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def divisors_trial(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def factors_trial(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def proper_divisors(n: int) -> list[int]:
    return factorize(n).divisors()[1:-1]


def exact_primes(n: int) -> frozenset[int]:
    return factorize(n).exponent_one_primes()


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))


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
    assert math.prod(p**e for p, e in f.factors) == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(e >= 1 for _, e in f.factors)
    assert all(is_prime_trial(p) for p in primes)


def test_prime_factorization_is_a_frozen_record():
    f = factorize(360)
    factors = ((2, 3), (3, 2), (5, 1))
    same = numtheory.PrimeFactorization(n=360, factors=factors)
    assert f == numtheory.PrimeFactorization(360, factors) == same
    assert f != numtheory.PrimeFactorization(360, ()) and f != (360, factors)
    assert hash(f) == hash(same)
    assert repr(f) == "PrimeFactorization(n=360, factors=((2, 3), (3, 2), (5, 1)))"
    with pytest.raises(AttributeError):
        f.n = 7
    with pytest.raises(AttributeError):
        del f.factors
    assert pickle.loads(pickle.dumps(f)) == f


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


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_match_trial_division(n):
    assert divisors(n) == factorize(n).divisors() == divisors_trial(n)


@given(st.integers(min_value=2, max_value=5000))
def test_proper_divisors_shape(n):
    divs = proper_divisors(n)
    assert divs == sorted(set(divs))
    assert all(1 < d < n and n % d == 0 for d in divs)
    assert len(divs) == math.prod(e + 1 for _, e in factorize(n).factors) - 2


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


@settings(max_examples=500)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == factors_trial(n)


@given(st.lists(st.sampled_from([p for p in range(1001, 20_000) if is_prime_trial(p)]),
                min_size=2, max_size=5))
def test_factorize_products_of_primes_past_trial_division(primes):
    # every prime is past the trial bound, so Miller-Rabin and rho do the work,
    # and rho often splits off a composite part
    expected = tuple((p, primes.count(p)) for p in sorted(set(primes)))
    assert factorize(math.prod(primes)).factors == expected


@pytest.mark.parametrize(
    "n, factors",
    [
        # Carmichael numbers
        (561, ((3, 1), (11, 1), (17, 1))),
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
        (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
        # strong pseudoprime to the bases 2, 3, 5 and 7
        (3215031751, ((151, 1), (751, 1), (28351, 1))),
        (1000003**2, ((1000003, 2),)),
        (1000003**3 * 999983, ((999983, 1), (1000003, 3))),
        (2**100 * 3, ((2, 100), (3, 1))),
        (10**20 + 39, ((10**20 + 39, 1),)),
        (9999999943 * 9999999967, ((9999999943, 1), (9999999967, 1))),
        (PSI_12, ((399165290221, 1), (798330580441, 1))),
    ],
)
def test_factorize_past_trial_division(n, factors):
    assert factorize(n).factors == factors


@pytest.mark.parametrize("n", [561, 41041, 825265, 3215031751, 1000003**2, PSI_12])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_pseudoprimes_fool_the_bases_they_are_named_for():
    assert all(strong_probable_prime(3215031751, a) for a in (2, 3, 5, 7))
    assert all(strong_probable_prime(PSI_12, a) for a in numtheory.MR_BASES[:12])
    assert all(strong_probable_prime(PRIMALITY_LIMIT, a) for a in numtheory.MR_BASES)


@pytest.mark.parametrize("n", [1000003, 1000000000039, 9999999967, 2**61 - 1, 10**20 + 39])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_at_the_exact_limit():
    assert is_prime(PRIMALITY_LIMIT - 1) is False
    for n in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 2):
        with pytest.raises(DomainError):
            is_prime(n)


@pytest.mark.parametrize(
    "n, message",
    [
        (PRIMALITY_LIMIT, str(PRIMALITY_LIMIT)),
        (3 * PRIMALITY_LIMIT, str(PRIMALITY_LIMIT)),
        # both factors are far past what the rho budget reaches
        (1000000000039 * 1000000000061, f"{numtheory.RHO_STEP_BUDGET} rho steps"),
        # trial division leaves the same cofactor
        (2**10 * 1000000000039 * 1000000000061, f"{numtheory.RHO_STEP_BUDGET} rho steps"),
    ],
)
def test_factorize_refuses_past_its_bounds(n, message):
    with pytest.raises(DomainError, match=message):
        factorize(n)


@pytest.mark.parametrize(
    "n", [12, 1000003**3 * 999983, 9999999943 * 9999999967, 2**100 * 3, 10**20 + 39]
)
def test_factorize_calls_itself_once(monkeypatch, n):
    calls = []
    real = numtheory.factorize

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(numtheory, "factorize", counting)
    numtheory.factorize(n)
    assert calls == [n]


def test_trial_primes_are_the_primes_below_the_trial_bound():
    expected = tuple(p for p in range(numtheory.TRIAL_BOUND) if is_prime_trial(p))
    assert numtheory.TRIAL_PRIMES == expected and len(expected) == 168
    assert numtheory.TRIAL_PRODUCT == math.prod(expected)


@pytest.mark.parametrize("t", range(1, 14))
def test_mr_psi_are_strong_pseudoprimes_to_their_bases(t):
    psi = numtheory.MR_PSI[t - 1]
    assert all(strong_probable_prime(psi, a) for a in numtheory.MR_BASES[:t])
    if t < 13:
        assert is_prime(psi) is False
        if psi < numtheory.MR_PSI[t]:
            # psi_{t+1} is the least pseudoprime to one more base
            assert not strong_probable_prime(psi, numtheory.MR_BASES[t])
    else:
        assert psi == PRIMALITY_LIMIT


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=10**18))
def test_is_prime_matches_all_thirteen_bases(n):
    # stopping at psi_t gives the verdict of the full 13-base test
    small = [p for p in numtheory.MR_BASES if n % p == 0]
    if small:
        expected = small == [n]
    else:
        expected = all(strong_probable_prime(n, a) for a in numtheory.MR_BASES)
    assert is_prime(n) == expected


def test_factorize_matches_trial_division_on_products_of_primes_near_the_bound():
    # primes in [900, 1100]: products of two below 1000 stop the walk once
    # p * p > the gcd, cofactors below TRIAL_BOUND ** 2 are prime untested,
    # and 1009 ** 2 goes through Miller-Rabin and rho
    primes = [p for p in range(900, 1101) if is_prime_trial(p)]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            assert factorize(p * q).factors == factors_trial(p * q)


def rho_divisor_one_step(m: int, budget: int) -> tuple[int, int]:
    """``numtheory._rho_divisor`` with the product reduced after every step."""
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps += r
            if steps > budget:
                raise numtheory._rho_exhausted(m)
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(numtheory.RHO_BATCH, r - k)
                steps += batch
                if steps > budget:
                    raise numtheory._rho_exhausted(m)
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
                steps += 1
        if g != m:
            return g, steps


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def rho_outcome(rho, m: int, budget: int):
    try:
        return rho(m, budget)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", [numtheory.RHO_STEP_BUDGET, 1000])
def test_rho_divisor_matches_the_one_step_reference(seed, budget):
    # the same divisor after the same steps, and the same refusals
    rng = random.Random(seed)
    for _ in range(25):
        p = random_prime(rng, 10**3, 10**7)
        q = random_prime(rng, 10**3, 10**7)
        m = p * q
        assert rho_outcome(numtheory._rho_divisor, m, budget) == rho_outcome(
            rho_divisor_one_step, m, budget
        )
