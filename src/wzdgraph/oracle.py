"""Independent verification: explicit Laplacians, a dense Jacobi eigensolver,
exact characteristic polynomials, and the per-n verification report.

The exact path is authoritative: when the numeric and exact results disagree,
the report fails and shows the exact spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ConvergenceError, DomainError, OrderCapError
from .graphcore import (
    Graph,
    build_bruteforce_wzd,
    build_structural_wzd,
    graphs_equal,
)
from .spectra import EXACT, SpectrumMultiset, wzd_spectrum_closed_form

DEFAULT_ORDER_CAP = 256
#: largest order the modular charpoly handles exactly; see ``_crt_primes``
EXACT_ORDER_LIMIT = 2048

JACOBI_CONV_FACTOR = 1e-12
JACOBI_MAX_SWEEPS = 100
TRACE_REL_TOL = 1e-9
SYMMETRY_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExactPolynomial:
    """Monic polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i; the leading coefficient is 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ContractViolation("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def laplacian_matrix(g: Graph) -> np.ndarray:
    """L = D - A for an explicit graph, as a k x k int64 array."""
    a = g.adjacency.astype(np.int64)
    return np.diag(a.sum(axis=1)) - a


def _round_robin_rounds(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament pivot schedule: each sweep visits every pair exactly once,
    grouped into rounds of pairwise-disjoint pairs."""
    m = k if k % 2 == 0 else k + 1
    arr = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            x, y = arr[i], arr[m - 1 - i]
            if x < k and y < k:
                ps.append(min(x, y))
                qs.append(max(x, y))
        rounds.append((np.array(ps), np.array(qs)))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def symmetric_eigenvalues(m, max_sweeps: int = JACOBI_MAX_SWEEPS) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Pivots follow a round-robin cyclic ordering; rotations within a round act
    on disjoint index pairs, so each round applies as one batched orthogonal
    update.  Converged when the off-diagonal Frobenius mass drops below
    ``JACOBI_CONV_FACTOR * (1 + max |diagonal|)``.  Raises ContractViolation
    for non-symmetric input and ConvergenceError if ``max_sweeps`` cyclic
    sweeps do not suffice or the trace drifts.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"need a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k == 0:
        return []
    scale = float(np.max(np.abs(a)))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_REL_TOL * (1.0 + scale):
        raise ContractViolation("matrix is not symmetric")
    a = (a + a.T) / 2.0
    if k == 1:
        return [float(a[0, 0])]

    trace_in = float(np.trace(a))
    rounds = _round_robin_rounds(k)
    upper = np.triu_indices(k, 1)
    for _ in range(max_sweeps):
        diag = np.diagonal(a)
        target = JACOBI_CONV_FACTOR * (1.0 + float(np.max(np.abs(diag))))
        # summed directly off the strict triangle: the subtraction form
        # trace(A^2) - trace(diag^2) cancels catastrophically near convergence
        off_sq = 2.0 * float(np.sum(np.square(a[upper])))
        if math.sqrt(off_sq) < target:
            break
        skip = target / k
        for ps, qs in rounds:
            pivots = a[ps, qs]
            mask = np.abs(pivots) > skip
            if not mask.any():
                continue
            p = ps[mask]
            q = qs[mask]
            apq = a[p, q]
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (
                np.abs(tau) + np.sqrt(1.0 + tau * tau)
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rows_p = a[p, :]
            rows_q = a[q, :]
            a[p, :] = c[:, None] * rows_p - s[:, None] * rows_q
            a[q, :] = s[:, None] * rows_p + c[:, None] * rows_q
            cols_p = a[:, p]
            cols_q = a[:, q]
            a[:, p] = c * cols_p - s * cols_q
            a[:, q] = s * cols_p + c * cols_q
            a[p, q] = 0.0
            a[q, p] = 0.0
    else:
        raise ConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")
    trace_out = float(np.trace(a))
    if abs(trace_out - trace_in) > TRACE_REL_TOL * max(1.0, abs(trace_in)):
        raise ConvergenceError("Jacobi trace drift exceeds tolerance")
    return [float(x) for x in np.sort(np.diagonal(a))]


_CRT_PRIME_CACHE: list[int] = []


def _crt_primes(count: int) -> list[int]:
    # Primes descending from 2^21: with k <= EXACT_ORDER_LIMIT = 2^11 the
    # mod-p matmul sums stay below 2^53 and are exact in float64; the pool
    # grows on demand.
    n = _CRT_PRIME_CACHE[-1] - 2 if _CRT_PRIME_CACHE else 2**21 - 1
    while len(_CRT_PRIME_CACHE) < count:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            _CRT_PRIME_CACHE.append(n)
        n -= 2
    return _CRT_PRIME_CACHE[:count]


def _char_poly_crt(a: np.ndarray) -> list[int]:
    """Faddeev-LeVerrier run modulo word-size primes, CRT-reconstructed.

    Residue arithmetic rides on exact float64 BLAS matmuls, which makes large
    orders tractable; the coefficient bound (1 + Gershgorin radius)^k decides
    how many primes are needed.
    """
    k = a.shape[0]
    lam = max((sum(map(abs, row)) for row in a.tolist()), default=0) or 1
    bound_bits = k * (lam + 1).bit_length() + 2
    primes = _crt_primes(bound_bits // 20 + 1)
    prod = 1
    for used, p in enumerate(primes, start=1):
        prod *= p
        if prod.bit_length() > bound_bits + 1:
            primes = primes[:used]
            break
    else:
        raise AssertionError("prime pool sizing is inconsistent")
    np_p = len(primes)
    pvec = np.array(primes, dtype=np.float64).reshape(np_p, 1, 1)
    # reduced in int64 first, so that entries beyond 2^53 stay exact
    amod = np.mod(a.astype(np.int64), np.array(primes)[:, None, None]).astype(np.float64)
    m = np.broadcast_to(np.eye(k), (np_p, k, k)).copy()
    residues: list[list[int]] = [[0] * np_p for _ in range(k + 1)]
    residues[k] = [1] * np_p
    idx = np.arange(k)
    for j in range(1, k + 1):
        prod_m = np.mod(amod @ m, pvec)
        tr = np.trace(prod_m, axis1=1, axis2=2)
        cj = [(-int(t) * pow(j, -1, p)) % p for t, p in zip(tr, primes)]
        residues[k - j] = cj
        if j < k:
            m = prod_m
            m[:, idx, idx] = np.mod(
                m[:, idx, idx] + np.array(cj, dtype=np.float64)[:, None],
                pvec[:, :, 0],
            )
    coeffs = [_crt_combine(res, primes) for res in residues]
    return coeffs


def _crt_combine(residues: list[int], primes: list[int]) -> int:
    x = 0
    modulus = 1
    for r, p in zip(residues, primes):
        t = ((r - x) * pow(modulus, -1, p)) % p
        x += modulus * t
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x


def char_poly_exact(m: np.ndarray, max_order: int = DEFAULT_ORDER_CAP) -> ExactPolynomial:
    """Exact monic characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    ``m`` must be a square ndarray of an integer dtype that fits int64.
    Raises OrderCapError above ``max_order`` and, whatever the cap, above
    ``EXACT_ORDER_LIMIT``, where the modular arithmetic stops being exact.
    """
    if not (
        isinstance(m, np.ndarray)
        and m.ndim == 2
        and m.shape[0] == m.shape[1]
        and m.dtype.kind in "iu"
        and np.can_cast(m.dtype, np.int64)
    ):
        raise ContractViolation("need a square integer ndarray")
    k = m.shape[0]
    if k > max_order:
        raise OrderCapError(f"order {k} exceeds cap {max_order}")
    if k > EXACT_ORDER_LIMIT:
        raise OrderCapError(
            f"order {k} exceeds {EXACT_ORDER_LIMIT}, the limit of exact modular arithmetic"
        )
    return ExactPolynomial(coeffs=tuple(_char_poly_crt(m) if k else [1]))


def _poly_mul_linear(coeffs: list[int], root: int) -> list[int]:
    # multiply by (x - root)
    out = [0] + coeffs
    for i in range(len(coeffs)):
        out[i] -= root * coeffs[i]
    return out


def poly_from_spectrum(s: SpectrumMultiset) -> ExactPolynomial:
    """Exact expansion of the product of (x - eigenvalue)^multiplicity."""
    if s.variant != EXACT:
        raise ContractViolation("exact spectrum required")
    coeffs = [1]
    for e, mult in s.items_sorted():
        for _ in range(mult):
            coeffs = _poly_mul_linear(coeffs, e)
    return ExactPolynomial(coeffs=tuple(coeffs))


def poly_matches_spectrum(p: ExactPolynomial, s: SpectrumMultiset) -> bool:
    """True iff p equals the exact expansion of the spectrum's product form."""
    if s.variant != EXACT:
        raise ContractViolation("exact spectrum required")
    if s.order != p.degree:
        raise ContractViolation(
            f"spectrum order {s.order} does not match degree {p.degree}"
        )
    return poly_from_spectrum(s).coeffs == p.coeffs


def integrality_check(eigs, tol: float) -> tuple[bool, list[int]]:
    """Whether every eigenvalue sits within tol of an integer; plus roundings.

    Rounding is to the nearest integer, halves away from zero.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rounded = []
    ok = True
    for e in eigs:
        r = math.floor(e + 0.5) if e >= 0 else math.ceil(e - 0.5)
        rounded.append(int(r))
        if abs(e - r) > tol:
            ok = False
    return ok, rounded


STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_DEGENERATE = "DEGENERATE-EMPTY"

NUMERIC_MATCH_TOL = 1e-8
INTEGRAL_TOL = 1e-6


@dataclass
class VerificationReport:
    n: int
    status: str
    checks: dict[str, bool]
    spectrum: SpectrumMultiset
    charpoly_skipped: bool = False

    @property
    def passed(self) -> bool:
        return self.status != STATUS_FAIL

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "status": self.status,
            "checks": dict(self.checks),
            "spectrum": self.spectrum.to_json_dict(),
        }
        if self.charpoly_skipped:
            out["charpoly_skipped"] = True
        return out


def verify_spectrum(
    n: int,
    integral_tol: float = INTEGRAL_TOL,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> VerificationReport:
    """Run every check for one n and aggregate the result.

    Checks: the two constructions agree; the closed-form trace equals twice
    the edge count; the exact characteristic polynomial factors as the closed
    form predicts (skipped above ``order_cap``); numeric eigenvalues match the
    closed form elementwise; and all numeric eigenvalues are near-integers.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    brute = build_bruteforce_wzd(n)
    structural = build_structural_wzd(n)
    closed = wzd_spectrum_closed_form(n)
    order = closed.order

    checks = {"construction_equal": graphs_equal(brute, structural)}
    checks["trace_edges"] = closed.trace() == 2 * brute.edge_count

    lap = laplacian_matrix(brute)
    charpoly_skipped = order > order_cap
    if charpoly_skipped:
        checks["charpoly_match"] = True
    else:
        checks["charpoly_match"] = poly_matches_spectrum(
            char_poly_exact(lap, max_order=order_cap), closed
        )

    numeric = symmetric_eigenvalues(lap)
    expanded = closed.expand()
    if len(numeric) != len(expanded):
        checks["numeric_match"] = False
        checks["integral"] = False
    else:
        tol = NUMERIC_MATCH_TOL * max(1, order)
        checks["numeric_match"] = all(
            abs(a - b) <= tol for a, b in zip(numeric, expanded)
        )
        checks["integral"] = integrality_check(numeric, integral_tol)[0]

    if order == 0:
        status = STATUS_DEGENERATE if all(checks.values()) else STATUS_FAIL
    else:
        status = STATUS_PASS if all(checks.values()) else STATUS_FAIL
    return VerificationReport(
        n=n,
        status=status,
        checks=checks,
        spectrum=closed,
        charpoly_skipped=charpoly_skipped,
    )
