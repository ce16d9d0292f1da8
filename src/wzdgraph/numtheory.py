"""Exact integer arithmetic on the divisor structure of n.

Everything here is pure and deterministic: trial-division factorization,
Euler's totient, proper divisors, and the primes that divide n exactly once.
Intended scale is n up to ~10^7, where trial division is instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PrimeFactorization:
    """n written as a product of prime powers, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    @property
    def tau(self) -> int:
        """Number of divisors of n, including 1 and n."""
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    @property
    def totient(self) -> int:
        """Euler's phi of n."""
        return self.divisor_totient(self.n)

    def divisor_totient(self, m: int) -> int:
        """Euler's phi of a divisor m of n, from the primes of n: m is not factored."""
        if m < 1 or self.n % m:
            raise DomainError(f"{m} does not divide {self.n}")
        out = m
        for p, _ in self.factors:
            if m % p == 0:
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
    """Prime factorization by trial division; n = 1 yields an empty factor list."""
    if n < 1:
        raise DomainError(f"cannot factor n = {n}; need n >= 1")
    m = n
    factors: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return PrimeFactorization(n=n, factors=tuple(factors))


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


def proper_divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, ascending; empty exactly when n is prime."""
    if n < 2:
        raise DomainError(f"proper divisors undefined for n = {n}")
    return divisors(n)[1:-1]


def exact_primes(n: int) -> frozenset[int]:
    """Primes p with p | n but p^2 not | n, i.e. the exponent-1 primes of n."""
    if n < 2:
        raise DomainError(f"exact primes undefined for n = {n}")
    return factorize(n).exponent_one_primes()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factorize(n).factors
    return len(f) == 1 and f[0][1] == 1
