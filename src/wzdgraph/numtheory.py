"""Exact integer arithmetic on the divisor structure of n.

Everything here is pure and deterministic.  ``factorize`` finds the prime
factors below TRIAL_BOUND from one gcd with their product, runs a
deterministic Miller-Rabin test on the cofactor left over, with only as many
prime bases as its size needs, and splits the composite ones with Brent's
variant of Pollard rho.  The test is exact below PRIMALITY_LIMIT and rho runs
under the fixed RHO_STEP_BUDGET, so an n that would need more is refused with
``DomainError`` instead of hanging.  A cofactor with two prime factors of 10
digits splits in well under a second.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod

from ._record import Record
from .errors import DomainError

#: trial division takes the primes below TRIAL_BOUND; a cofactor left below
#: TRIAL_BOUND ** 2 after that is prime without a test.
TRIAL_BOUND = 1000


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below ``bound``, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(compress(range(bound), sieve))


#: the 168 primes below TRIAL_BOUND, and their product: gcd(n, TRIAL_PRODUCT)
#: is the product of the ones that divide n.
TRIAL_PRIMES = _primes_below(TRIAL_BOUND)
TRIAL_PRODUCT = prod(TRIAL_PRIMES)
#: the first 13 primes.  Strong-probable-prime tests to all of them are exact
#: below PRIMALITY_LIMIT, the smallest strong pseudoprime to these bases
#: (psi_13, Sorenson & Webster, Math. Comp. 2017).  The first 12 alone are
#: not enough there: psi_12 = 318665857834031151167461 passes all of them.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981
#: psi_t for t = 1..13, the smallest strong pseudoprime to the first t bases
#: of MR_BASES (OEIS A014233; Jaeschke, Math. Comp. 1993; Sorenson & Webster,
#: Math. Comp. 2017): an n < psi_t that passes those t bases is prime.
MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    PRIMALITY_LIMIT,
)
#: steps of the rho map x -> x^2 + c allowed in one factorize call, over all
#: cofactors and constants c: enough to split off any prime factor of up to
#: 10 digits, and most of 11 digits, in about 0.3 s at most.
RHO_STEP_BUDGET = 1 << 19
#: rho takes one gcd per RHO_BATCH steps (Brent, BIT 1980).
RHO_BATCH = 128


class PrimeFactorization(Record):
    """n written as a product of prime powers, primes ascending."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)

    @property
    def totient(self) -> int:
        """Euler's phi of n."""
        out = self.n
        for p, _ in self.factors:
            out -= out // p
        return out

    def exponent_one_primes(self) -> frozenset[int]:
        return frozenset(p for p, e in self.factors if e == 1)

    def divisors(self) -> list[int]:
        """All positive divisors of n, ascending, from the exponent vector."""
        out = [1]
        for p, e in self.factors:
            out = [d * p**i for d in out for i in range(e + 1)]
        return sorted(out)


def factorize(n: int) -> PrimeFactorization:
    """Prime factorization; n = 1 yields an empty factor list.

    Trial division: ``small = gcd(n, TRIAL_PRODUCT)`` is the product of the
    primes below TRIAL_BOUND that divide n, and TRIAL_PRIMES is walked only
    while some are left; once p * p > small, small is itself prime.  Then
    Miller-Rabin on the cofactor and Brent's rho to split it while it is
    composite.  Raises ``DomainError`` when a cofactor to test is at least
    PRIMALITY_LIMIT or when rho runs past RHO_STEP_BUDGET steps.
    """
    if n < 1:
        raise DomainError(f"cannot factor n = {n}; need n >= 1")
    m = n
    factors: list[tuple[int, int]] = []
    small = gcd(m, TRIAL_PRODUCT)
    for p in TRIAL_PRIMES:
        if small == 1:
            break
        if p * p > small:
            p = small  # a product of primes >= p, below p * p
        elif small % p:
            continue
        small //= p
        e = 0
        while m % p == 0:
            e += 1
            m //= p
        factors.append((p, e))
    if 1 < m < TRIAL_BOUND * TRIAL_BOUND:
        factors.append((m, 1))
    elif m > 1:
        primes: list[int] = []
        stack = [m]
        budget = RHO_STEP_BUDGET
        while stack:
            part = stack.pop()
            if is_prime(part):
                primes.append(part)
            else:
                g, used = _rho_divisor(part, budget)
                budget -= used
                stack += (g, part // g)
        factors += sorted((p, primes.count(p)) for p in set(primes))
    return PrimeFactorization(n=n, factors=tuple(factors))


def _rho_divisor(m: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite m, and the rho steps it took.

    Brent's cycle search from x0 = 2 with c = 1, 2, 3, ... in turn; the product
    of the differences is reduced mod m once per two steps and by one gcd per
    RHO_BATCH steps.  Raises ``DomainError`` rather than step past ``budget``.
    """
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps += r
            if steps > budget:
                raise _rho_exhausted(m)
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(RHO_BATCH, r - k)
                steps += batch
                if steps > budget:
                    raise _rho_exhausted(m)
                for _ in range(batch >> 1):
                    y1 = (y * y + c) % m
                    y = (y1 * y1 + c) % m
                    q = q * (x - y1) * (x - y) % m
                if batch & 1:
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            # the batch overshot: replay it one step and one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
                steps += 1
        if g != m:
            return g, steps


def _rho_exhausted(m: int) -> DomainError:
    return DomainError(f"cannot split {m}: no factor found within {RHO_STEP_BUDGET} rho steps")


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n; phi(1) = 1."""
    if n < 1:
        raise DomainError(f"phi undefined for n = {n}")
    return factorize(n).totient


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise DomainError(f"no divisors for n = {n}")
    return factorize(n).divisors()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact below PRIMALITY_LIMIT.

    The bases of MR_BASES are tried in turn, and n is prime once it passes
    the first t of them with n < MR_PSI[t - 1]: 12-digit n need 5 bases, and
    only n from psi_12 up need all 13.
    """
    if n < 2:
        return False
    if n >= PRIMALITY_LIMIT:
        raise DomainError(
            f"cannot decide whether {n} is prime: Miller-Rabin to the first "
            f"{len(MR_BASES)} prime bases is exact only below {PRIMALITY_LIMIT}"
        )
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(MR_BASES, MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break  # always reached: n < PRIMALITY_LIMIT = MR_PSI[-1]
    return True
