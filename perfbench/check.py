"""Output checks made without wzdgraph: every fact is recomputed here from the
definition of WΓ(Z_n) or from a known factorization of n.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.  They run in the benchmark's parent process after the
worker has exited, so they neither share the timed region nor raise the
worker's peak memory.
"""

from __future__ import annotations

import json
import math
import random
import re
from itertools import product

import numpy as np

from workloads import factor_small

INTEGRAL_TOL = 1e-6
#: present and absent pairs sampled per graph export
PAIR_SAMPLES = 200


def phi(factors: dict[int, int]) -> int:
    out = 1
    for p, e in factors.items():
        out *= (p - 1) * p ** (e - 1)
    return out


def _value(factors: dict[int, int]) -> int:
    return math.prod(p**e for p, e in factors.items())


def _divisor_factorizations(factors: dict[int, int]):
    primes = sorted(factors)
    for exps in product(*(range(factors[p] + 1) for p in primes)):
        yield {p: e for p, e in zip(primes, exps) if e}


def closed_form(factors: dict[int, int]) -> dict[int, int]:
    """The paper's Laplacian spectrum of WΓ(Z_n), eigenvalue -> multiplicity.

    V = n - phi(n) - 1 and A' = primes dividing n exactly once.  A' empty: the
    graph is K_V.  Otherwise 0 once, V with multiplicity |A'| - 1 plus the sum
    of phi(n/d) over proper divisors d not in A', and V - phi(n/p) with
    multiplicity phi(n/p) - 1 for each p in A'.
    """
    n = _value(factors)
    v = n - phi(factors) - 1
    if v == 0:
        return {}
    exact = [p for p, e in factors.items() if e == 1]
    if not exact:
        return {0: 1, v: v - 1} if v > 1 else {0: 1}
    spec = {0: 1, v: len(exact) - 1}
    for d in _divisor_factorizations(factors):
        dv = _value(d)
        if 1 < dv < n and dv not in exact:
            cofactor = {p: e - d.get(p, 0) for p, e in factors.items() if e > d.get(p, 0)}
            spec[v] += phi(cofactor)
    for p in exact:
        f = phi({q: e for q, e in factors.items() if q != p})
        spec[v - f] = spec.get(v - f, 0) + f - 1
    return {e: m for e, m in spec.items() if m}


def edge_count(factors: dict[int, int]) -> int:
    """C(V, 2) minus the pairs inside the edgeless classes A_p, p in A'."""
    v = _value(factors) - phi(factors) - 1
    out = v * (v - 1) // 2
    for p, e in factors.items():
        if e == 1:
            f = phi({q: k for q, k in factors.items() if q != p})
            out -= f * (f - 1) // 2
    return out


def _spectrum_problems(spec: dict[int, int], factors: dict[int, int]) -> list[str]:
    n = _value(factors)
    v = n - phi(factors) - 1
    problems = []
    if sum(spec.values()) != v:
        problems.append(f"multiplicities sum to {sum(spec.values())}, expected V = {v}")
    if v and spec.get(0) != 1:
        problems.append(f"eigenvalue 0 has multiplicity {spec.get(0)}, expected 1")
    if sum(e * m for e, m in spec.items()) != 2 * edge_count(factors):
        problems.append("trace differs from twice the edge count")
    if spec != closed_form(factors):
        problems.append(f"spectrum {sorted(spec.items())} differs from the closed form")
    return problems


class Definition:
    """WΓ(Z_n) from its definition: x ~ y iff r*s = 0 (mod n) for some nonzero
    r in ann(x) and nonzero s in ann(y).  The witness scan is memoized on the
    pair of annihilators, which are the nonzero multiples of n / gcd(x, n)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.vertices = [x for x in range(1, n) if math.gcd(x, n) > 1]
        self._memo: dict[tuple[int, int], bool] = {}

    def _ann(self, x: int) -> np.ndarray:
        step = self.n // math.gcd(x, self.n)
        return np.arange(step, self.n, step, dtype=np.int64)

    def adjacent(self, x: int, y: int) -> bool:
        if x == y:
            return False
        key = tuple(sorted((math.gcd(x, self.n), math.gcd(y, self.n))))
        hit = self._memo.get(key)
        if hit is None:
            r, s = self._ann(x), self._ann(y)
            hit = self._memo[key] = bool(np.any(np.outer(r, s) % self.n == 0))
        return hit

    def adjacency(self) -> np.ndarray:
        k = len(self.vertices)
        a = np.zeros((k, k), dtype=np.float64)
        for i, x in enumerate(self.vertices):
            for j in range(i + 1, k):
                if self.adjacent(x, self.vertices[j]):
                    a[i, j] = a[j, i] = 1.0
        return a


def reference_spectrum(n: int) -> tuple[dict[int, int], list[str]]:
    """Laplacian spectrum of the definition's graph by numpy.linalg.eigvalsh,
    rounded, with a problem for each eigenvalue not within 1e-6 of an integer."""
    a = Definition(n).adjacency()
    if a.size == 0:
        return {}, []
    eigs = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
    rounded = np.rint(eigs)
    problems = [f"reference eigenvalue {e!r} is not an integer"
                for e in eigs[np.abs(eigs - rounded) > INTEGRAL_TOL]]
    spec: dict[int, int] = {}
    for e in rounded.astype(np.int64).tolist():
        spec[e] = spec.get(e, 0) + 1
    return spec, problems


_VERIFY_LINE = re.compile(
    r"n=(\d+) PASS spectrum=(\S+) construction=ok trace=ok charpoly=(ok|skipped) "
    r"numeric=ok integral=ok"
)


def check_verify(n: int, text: str, charpoly: str, reference: dict[int, int]) -> list[str]:
    """``wzd verify n..n`` text output: one PASS line whose spectrum equals the
    reference, with the exact check in state ``charpoly`` (ok or skipped);
    prime n must report DEGENERATE-EMPTY."""
    lines = text.splitlines()
    if len(lines) != 2:
        return [f"expected 2 lines, got {len(lines)}"]
    if not reference:
        if lines[0] != f"n={n} DEGENERATE-EMPTY (prime; no zero-divisors)":
            return [f"bad degenerate line {lines[0]!r}"]
        summary = f"checked 1 values in {n}..{n}: 0 pass, 1 degenerate, 0 fail"
        return [] if lines[1] == summary else [f"bad summary {lines[1]!r}"]
    m = _VERIFY_LINE.fullmatch(lines[0])
    if not m or int(m.group(1)) != n:
        return [f"bad report line {lines[0]!r}"]
    if m.group(3) != charpoly:
        return [f"charpoly={m.group(3)}, expected {charpoly}"]
    printed: dict[int, int] = {}
    for cell in m.group(2).split(","):
        e, mult = cell.split(":")
        printed[int(e)] = int(mult)
    if printed != reference:
        return [f"spectrum {sorted(printed.items())} differs from reference {sorted(reference.items())}"]
    if lines[1] != f"checked 1 values in {n}..{n}: 1 pass, 0 degenerate, 0 fail":
        return [f"bad summary {lines[1]!r}"]
    return []


def check_spectrum(n: int, factors: dict[int, int], text: str) -> list[str]:
    """``wzd spectrum n`` text output against the known factorization of n."""
    if _value(factors) != n:
        return [f"factorization {factors} does not multiply to {n}"]
    if text == "no zero-divisors; spectrum empty\n":
        spec: dict[int, int] = {}
    else:
        lines = text.splitlines()
        if len(lines) != 2 or not lines[0].startswith("eigenvalue ") \
                or not lines[1].startswith("multiplicity "):
            return [f"unparsable spectrum table {text[:80]!r}"]
        eigs = [int(x) for x in lines[0].split()[1:]]
        mults = [int(x) for x in lines[1].split()[1:]]
        if len(eigs) != len(mults) or eigs != sorted(set(eigs)):
            return ["eigenvalue row not strictly ascending or rows differ in length"]
        spec = dict(zip(eigs, mults))
    return _spectrum_problems(spec, factors)


def _parse_export(n: int, fmt: str, text: str) -> tuple[list[int], list[tuple[int, int]]]:
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("modulus") != n:
            raise ValueError(f"modulus {payload.get('modulus')!r}, expected {n}")
        return payload["vertices"], [tuple(e) for e in payload["edges"]]
    if fmt == "csv":
        edges, isolated = [], []
        for line in text.splitlines():
            cells = [int(c) for c in line.split(",")]
            if len(cells) == 2:
                edges.append((cells[0], cells[1]))
            elif len(cells) == 1:
                isolated.append(cells[0])
            else:
                raise ValueError(f"bad csv line {line!r}")
        return sorted({u for e in edges for u in e} | set(isolated)), edges
    if fmt == "dot":
        lines = text.splitlines()
        if lines[0] != f"graph wzd_{n} {{" or lines[-1] != "}":
            raise ValueError("bad dot header or footer")
        vertices, edges = [], []
        for line in lines[1:-1]:
            m = re.fullmatch(r"  (\d+) -- (\d+);", line)
            if m:
                edges.append((int(m.group(1)), int(m.group(2))))
                continue
            m = re.fullmatch(r"  (\d+);", line)
            if not m:
                raise ValueError(f"bad dot line {line!r}")
            vertices.append(int(m.group(1)))
        return vertices, edges
    raise ValueError(f"unknown format {fmt!r}")


def check_graph(n: int, fmt: str, text: str, seed: int) -> list[str]:
    """``wzd graph n --format fmt`` output: vertex set, edge count, sorted
    duplicate-free pairs, and a seeded sample of present and absent pairs
    against the definition."""
    try:
        vertices, edges = _parse_export(n, fmt, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparsable {fmt} export: {exc}"]
    definition = Definition(n)
    problems = []
    if sorted(vertices) != definition.vertices:
        problems.append("vertex set differs from {x : gcd(x, n) > 1}")
    expected = edge_count(factor_small(n))
    if len(edges) != expected:
        problems.append(f"{len(edges)} edges, expected {expected}")
    if any(u >= v for u, v in edges) or any(a >= b for a, b in zip(edges, edges[1:])):
        problems.append("edge pairs not u < v, strictly ascending")
    rng = random.Random(f"pairs:{seed}:{n}:{fmt}")
    for u, v in rng.sample(edges, min(PAIR_SAMPLES, len(edges))):
        if not definition.adjacent(u, v):
            problems.append(f"edge ({u}, {v}) is not in WΓ(Z_{n})")
            break
    present = set(edges)
    verts = definition.vertices
    absent = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
              if not definition.adjacent(u, v)]
    if any(pair in present for pair in rng.sample(absent, min(PAIR_SAMPLES, len(absent)))):
        problems.append("an export lists a pair that WΓ(Z_n) does not join")
    return problems
