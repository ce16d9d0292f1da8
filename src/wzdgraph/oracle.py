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


def _round_robin_rounds(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Tournament pivot schedule: each sweep visits every pair exactly once,
    grouped into rounds of pairwise-disjoint pairs.

    Row r of the two returned (rounds, pairs) arrays holds the pairs (p, q),
    p < q, of round r.  This is the circle method: position 0 stays put and
    round r puts 1 + (j - 1 - r) mod (m - 1) at position j >= 1, for m = k
    rounded up to even; position i meets position m - 1 - i, and the pair
    with the dummy index k of an odd k is dropped.
    """
    m = k + k % 2
    pos = np.zeros((m - 1, m), dtype=np.intp)
    pos[:, 1:] = 1 + (np.arange(m - 1) - np.arange(m - 1)[:, None]) % (m - 1)
    x, y = pos[:, : m // 2], pos[:, : m // 2 - 1 : -1]
    ps, qs = np.minimum(x, y), np.maximum(x, y)
    if m > k:
        keep = qs < k
        ps, qs = ps[keep].reshape(m - 1, -1), qs[keep].reshape(m - 1, -1)
    return ps, qs


def symmetric_eigenvalues(m, max_sweeps: int = JACOBI_MAX_SWEEPS) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Pivots follow a round-robin cyclic ordering; rotations within a round act
    on disjoint index pairs, so each round applies as one batched orthogonal
    update.  Converged when the off-diagonal Frobenius mass drops below
    ``JACOBI_CONV_FACTOR * (1 + max |diagonal|)``.  Raises ContractViolation
    for non-symmetric input and ConvergenceError if ``max_sweeps`` cyclic
    sweeps do not suffice or the trace drifts.

    The indices are first put in a middle-out order of the diagonal: the
    upper half of a stable sort on even positions, ascending from the
    median, and the lower half on odd positions, descending from it.  Each
    neighbouring pair then joins a low and a high diagonal entry.  On WΓ(Z_n)
    Laplacians the vertex order, not the rotations or the schedule, sets the
    sweep count: in ascending vertex order the off-diagonal mass fell only
    about 3x per sweep (16 sweeps at n = 480, up to 15 for n <= 320), and a
    random orthogonal similarity or a random permutation needed as many;
    this order needs 4 at n = 480 and at most 6 for n <= 320.  A
    permutation similarity is exact in float64 and keeps the trace, and the
    result is sorted, so the eigenvalues do not depend on it.
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

    by_diag = np.argsort(np.diagonal(a), kind="stable")
    order = np.empty(k, dtype=np.intp)
    order[0::2] = by_diag[k // 2 :]
    order[1::2] = by_diag[k // 2 - 1 :: -1]
    a = a[np.ix_(order, order)]

    trace_in = float(np.trace(a))
    rounds = list(zip(*_round_robin_rounds(k)))
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
    # Primes descending from 2^21, so 2^20 < p < 2^21.  Residues are kept
    # within p/2 + 4 of zero (``_sym_mod``), so every float64 sum in the power
    # sums is of at most k products of two residues, each below p^2 / 2, or
    # of at most k residues; with k <= EXACT_ORDER_LIMIT = 2^11 it stays
    # below 2^52 and is exact.  The pool grows on demand.
    n = _CRT_PRIME_CACHE[-1] - 2 if _CRT_PRIME_CACHE else 2**21 - 1
    while len(_CRT_PRIME_CACHE) < count:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            _CRT_PRIME_CACHE.append(n)
        n -= 2
    return _CRT_PRIME_CACHE[:count]


def _sym_mod(x: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """Reduce float64 integers |x| < 2^52 in place modulo p, to |x| <= p/2 + 4.

    The quotient x * (1/p) is off by less than 2^-19 for p > 2^20, so its
    rounding is off from x / p by at most one half plus that; rint(q) * p and
    the difference are exact integers.
    """
    q = x * p_inv
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _power_sums(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """tr(A^j) mod p for j = 0..k, one row per prime, as a (P, k + 1) int64 array.

    Baby steps A^r for r < s = isqrt(k) + 1 are kept; the giant steps
    (A^s)^i are formed one at a time, and tr(A^(is + r)) is the sum over rows
    y of the row-by-column products of A^r and (A^s)^i: about 2 sqrt(k)
    matmuls per prime.  Primes go in chunks of at most 3P / (s + 3), so the
    s + 4 live k x k arrays per prime of a chunk never hold more than
    4 P k^2 floats.
    """
    s = math.isqrt(a.shape[0]) + 1
    chunk = max(1, 3 * len(primes) // (s + 3))
    a64 = a.astype(np.int64)
    return np.concatenate(
        [_power_sums_chunk(a64, primes[lo : lo + chunk], s)
         for lo in range(0, len(primes), chunk)]
    )


def _power_sums_chunk(a: np.ndarray, primes: list[int], s: int) -> np.ndarray:
    """``_power_sums`` for one chunk of primes, with s baby steps."""
    k = a.shape[0]
    ps = np.array(primes, dtype=np.int64)[:, None, None]
    pv = ps.astype(np.float64)
    p_inv = 1.0 / pv
    # baby[:, y, r, x] = A^r[y, x] mod p
    baby = np.empty((len(primes), k, s, k))
    baby[:, :, 0, :] = np.eye(k)
    # reduced in int64 first, so that entries beyond 2^53 stay exact
    baby[:, :, 1, :] = _sym_mod(np.mod(a, ps).astype(np.float64), pv, p_inv)
    amod = baby[:, :, 1, :]
    for r in range(2, s):
        baby[:, :, r, :] = _sym_mod(baby[:, :, r - 1, :] @ amod, pv, p_inv)
    # giant[:, y, x] = (A^s)^i[x, y] mod p; transposed so that its row y
    # pairs with row y of every baby step
    step = _sym_mod(baby[:, :, s - 1, :] @ amod, pv, p_inv).transpose(0, 2, 1).copy()
    # traces[:, i * s + r] is congruent to tr(A^(is + r)) mod p
    traces = np.empty((len(primes), (k // s + 1) * s))
    traces[:, :s] = np.trace(baby, axis1=1, axis2=3)
    giant = step
    for i in range(1, k // s + 1):
        if i > 1:
            giant = _sym_mod(step @ giant, pv, p_inv)
        rows = _sym_mod((baby @ giant[..., None])[..., 0], pv, p_inv)
        traces[:, i * s : (i + 1) * s] = rows.sum(axis=1)
    return np.mod(traces[:, : k + 1].astype(np.int64), ps[:, 0])


def _char_poly_crt(a: np.ndarray) -> list[int]:
    """Characteristic polynomial from power sums modulo word-size primes.

    Per prime, Newton's identities j e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i)
    tr(A^i) turn the power sums into the elementary symmetric functions e_j
    of the eigenvalues (j <= k < p, so j is invertible), and the coefficient
    of x^(k-j) is (-1)^j e_j.  CRT reconstructs the integers; the coefficient
    bound (1 + Gershgorin radius)^k decides how many primes are needed.
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
    q = np.array(primes, dtype=np.int64)
    # signed[:, i - 1] = (-1)^(i-1) tr(A^i) mod p
    signed = _power_sums(a, primes)[:, 1:]
    signed[:, 1::2] = np.mod(-signed[:, 1::2], q[:, None])
    e = np.zeros((len(primes), k + 1), dtype=np.int64)
    e[:, 0] = 1
    for j in range(1, k + 1):
        # j terms below 2^42 each: the int64 sum is exact
        acc = np.einsum("pi,pi->p", e[:, j - 1 :: -1], signed[:, :j]) % q
        inv = np.array([pow(j, -1, p) for p in primes], dtype=np.int64)
        e[:, j] = acc * inv % q
    e[:, 1::2] = np.mod(-e[:, 1::2], q[:, None])
    garner, modulus = _garner_constants(primes)
    return [_crt_combine(res, garner, modulus) for res in e[:, ::-1].T.tolist()]


def _garner_constants(primes: list[int]) -> tuple[list[tuple[int, int, int]], int]:
    """(p, product of the earlier primes, its inverse mod p) for each prime,
    and the product of all the primes."""
    out = []
    modulus = 1
    for p in primes:
        out.append((p, modulus, pow(modulus, -1, p)))
        modulus *= p
    return out, modulus


def _crt_combine(residues: list[int], garner: list[tuple[int, int, int]], modulus: int) -> int:
    """The integer of least absolute value with the given residues."""
    x = 0
    for r, (p, before, inv) in zip(residues, garner):
        x += before * ((r - x % p) * inv % p)
    if x > modulus // 2:
        x -= modulus
    return x


def char_poly_exact(m: np.ndarray, max_order: int = DEFAULT_ORDER_CAP) -> ExactPolynomial:
    """Exact monic characteristic polynomial det(xI - M).

    Computed from the power sums tr(M^j) modulo word-size primes by Newton's
    identities and reconstructed by CRT (``_char_poly_crt``).

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
