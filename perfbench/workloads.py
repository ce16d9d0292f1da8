"""Seeded inputs for the four workloads.

Every input is one ``wzd`` command line plus the facts its checker needs (n
and, for the large-n workload, the factorization the input was built from).
The seed never changes how much work a workload does by more than a few
percent: the verify and graph workloads use fixed sets of n and the seed only
orders each round, while the large-n workload draws its n from one narrow
band, so that runs with different seeds measure the same cost.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-exact", "verify-numeric", "spectrum-large", "graph-export")

#: every n in 4..VERIFY_EXACT_TOP has order at most 65, far under the default
#: charpoly cap of 256, so the exact check runs on each composite n.
VERIFY_EXACT_TOP = 100

#: composite n in 100..VERIFY_NUMERIC_TOP (and 30..40 for the self-test) all
#: have order >= 10 > --max-order,
#: so the exact check is skipped and Jacobi is the dominant cost.
VERIFY_NUMERIC_TOP = 160
VERIFY_NUMERIC_MAX_ORDER = 8

#: orders 119..269; all three formats of each n.
GRAPH_EXPORT_NS = (180, 200, 216, 240, 252, 270, 280, 300, 320, 336, 350, 360, 378, 400)
GRAPH_FORMATS = ("csv", "json", "dot")

#: every large n except the prime powers lies in [LO, LO * 1.1): the cost of
#: the O(sqrt n) loops then varies by under 5 % between seeds.
LARGE_LO = 10**11
#: (shape, count) for spectrum-large.
LARGE_SHAPES = (("smooth", 12), ("semiprime", 8), ("primorial", 12),
                ("prime-power", 8), ("prime", 8))

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_small(n: int) -> dict[int, int]:
    """Trial division; for the small n of the verify and graph workloads."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if lo <= p < hi and is_prime(p):
            return p


def _pattern_in_band(rng, primes, exponents, lo, hi):
    """A product of distinct random primes from ``primes`` raised to
    ``exponents``, redrawn until it lands in [lo, hi).  A fixed exponent
    pattern fixes the number of divisors, so seeds differ only in which
    primes appear."""
    while True:
        chosen = rng.sample(primes, len(exponents))
        n = 1
        for p, e in zip(chosen, exponents):
            n *= p**e
        if lo <= n < hi:
            return n, dict(zip(chosen, exponents))


def _large_input(rng: random.Random, shape: str, lo: int, hi: int, toy: bool) -> tuple[int, dict[int, int]]:
    if shape == "smooth":
        # 47-smooth, with first powers (so the general branch of the closed
        # form runs) and repeated primes; 192 divisors
        pattern = (2, 1, 1) if toy else (3, 2, 1, 1, 1, 1)
        return _pattern_in_band(rng, SMALL_PRIMES[:15], pattern, lo, hi)
    if shape == "primorial":
        # squarefree with 512 divisors: one euler_phi call per divisor
        return _pattern_in_band(rng, SMALL_PRIMES, (1,) * (4 if toy else 9), lo, hi)
    if shape == "semiprime":
        root = int(lo ** 0.5)
        p = _random_prime(rng, root * 19 // 20, root)
        q = _random_prime(rng, -(-lo // p), -(-hi // p))
        return p * q, {p: 1, q: 1}
    if shape == "prime-power":
        # 11 to 13 digits, like the rest of the workload
        p = rng.choice(SMALL_PRIMES)
        e = rng.choice([e for e in range(1, 64) if lo // 10 <= p**e < lo * 100])
        return p**e, {p: e}
    if shape == "prime":
        p = _random_prime(rng, lo, hi)
        return p, {p: 1}
    raise ValueError(f"unknown shape {shape!r}")


def make_inputs(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The inputs of one workload: dicts with ``argv``, ``n`` and, where the
    checker needs it, ``factors`` (prime -> exponent) or ``format``.

    ``toy`` shrinks every workload to a few tiny inputs, for the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-exact":
        top = 20 if toy else VERIFY_EXACT_TOP
        return [{"argv": ["verify", f"{n}..{n}"], "n": n} for n in range(4, top + 1)]
    if workload == "verify-numeric":
        lo, hi = (30, 40) if toy else (100, VERIFY_NUMERIC_TOP)
        return [
            {"argv": ["verify", f"{n}..{n}", "--max-order", str(VERIFY_NUMERIC_MAX_ORDER)], "n": n}
            for n in range(lo, hi + 1)
            if not is_prime(n)
        ]
    if workload == "spectrum-large":
        lo = 10**6 if toy else LARGE_LO
        hi = lo + lo // 10
        out = []
        for shape, count in LARGE_SHAPES:
            for _ in range(1 if toy else count):
                n, factors = _large_input(rng, shape, lo, hi, toy)
                out.append({"argv": ["spectrum", str(n)], "n": n, "shape": shape,
                            "factors": factors})
        return out
    if workload == "graph-export":
        ns = (12, 18, 30) if toy else GRAPH_EXPORT_NS
        return [
            {"argv": ["graph", str(n), "--format", fmt], "n": n, "format": fmt}
            for n in ns
            for fmt in GRAPH_FORMATS
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
