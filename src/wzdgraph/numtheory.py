"""Exact integer arithmetic on the divisor structure of n.

Everything here is pure and deterministic.  ``factorize`` runs trial division
by d < 1000, a deterministic Miller-Rabin test on each cofactor left over,
and Brent's variant of Pollard rho to split the composite ones.  The test is
exact below PRIMALITY_LIMIT and rho runs under the fixed RHO_STEP_BUDGET, so
an n that would need more is refused with ``DomainError`` instead of hanging.
A cofactor with two prime factors of 10 digits splits in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError

#: trial division runs over d < TRIAL_BOUND, while d * d is at most the
#: cofactor; a cofactor below d * d after that is prime without a test.
TRIAL_BOUND = 1000
#: the first 13 primes.  Strong-probable-prime tests to all of them are exact
#: below PRIMALITY_LIMIT, the smallest strong pseudoprime to these bases
#: (psi_13, Sorenson & Webster, Math. Comp. 2017).  The first 12 alone are
#: not enough there: psi_12 = 318665857834031151167461 passes all of them.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981
#: steps of the rho map x -> x^2 + c allowed in one factorize call, over all
#: cofactors and constants c: enough to split off any prime factor of up to
#: 10 digits, and most of 11 digits, in about 0.3 s at most.
RHO_STEP_BUDGET = 1 << 19
#: rho takes one gcd per RHO_BATCH steps (Brent, BIT 1980).
RHO_BATCH = 128


@dataclass(frozen=True)
class PrimeFactorization:
    """n written as a product of prime powers, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

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

    Trial division by d < TRIAL_BOUND, then Miller-Rabin on the cofactor and
    Brent's rho to split it while it is composite.  Raises ``DomainError``
    when a cofactor to test is at least PRIMALITY_LIMIT or when rho runs past
    RHO_STEP_BUDGET steps.
    """
    if n < 1:
        raise DomainError(f"cannot factor n = {n}; need n >= 1")
    m = n
    factors: list[tuple[int, int]] = []
    d = 2
    while d < TRIAL_BOUND and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1 and d * d > m:
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
    of the differences is reduced by one gcd per RHO_BATCH steps.  Raises
    ``DomainError`` rather than step past ``budget``.
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
                for _ in range(batch):
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
    """Deterministic Miller-Rabin to the bases MR_BASES; exact below PRIMALITY_LIMIT."""
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
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
