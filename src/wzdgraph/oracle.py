"""Independent verification: explicit Laplacians, a dense Jacobi eigensolver,
the twin quotient of a graph in token form, and the per-n verification report.

Twin classes are equitable, so a Laplacian spectrum is the twin eigenvalues
plus those of the m x m quotient (Brouwer & Haemers, Spectra of Graphs,
2.3); the exact certificate and the numeric eigenvalues both read it, and
``quotient_eigenvalues`` also solves a join's host, another such quotient.
The exact path is authoritative: when the numeric and exact results
disagree, the report fails and shows the exact spectrum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from ._numpy import np
from ._record import Record
from .errors import ContractViolation, ConvergenceError, DomainError, OrderCapError
from .graphcore import (
    Graph,
    check_graph_order,
    divisor_classes,
    scan_matches_classes,
    scan_wzd_tokens,
)
from .spectra import EXACT, INTEGRAL_TOL, SpectrumMultiset, wzd_spectrum_closed_form

#: largest order ``char_poly_exact`` accepts: its k - 2 products of k x k
#: matrices of Python integers cost O(k^4); at order 64 they took 0.65 s on
#: a path Laplacian, 1.7 s on K_64's and 2.0 s on a random graph's (best of
#: 3, one Xeon core)
CHAR_POLY_MAX_ORDER = 64

JACOBI_CONV_FACTOR = 1e-12
JACOBI_MAX_SWEEPS = 100
#: largest order whose Jacobi schedule is cached.  The schedule of order k
#: holds 16 k (k - 1) bytes of indices plus one view per round, so the full
#: cache, one entry per order, takes about 2.3 MB, where one entry at order
#: 4096 alone would take 270 MB.
JACOBI_CACHED_ORDER = 64
#: largest order handed to Jacobi: m - 1 for a twin quotient of m classes,
#: or a join's host order.  Raw Jacobi on cycle Laplacians, which have no
#: twins, took 1.7 s at order 256, 4.4 s at 352 and 22 s at 512 (one Xeon
#: core, one BLAS thread).
JACOBI_MAX_ORDER = 256
TRACE_REL_TOL = 1e-9
SYMMETRY_REL_TOL = 1e-12


class ExactPolynomial(Record):
    """Monic polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i; the leading coefficient is 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs or coeffs[-1] != 1:
            raise ContractViolation("polynomial must be monic")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def laplacian_matrix(g: Graph) -> np.ndarray:
    """L = D - A for an explicit graph, as a k x k int64 array."""
    lap = g.adjacency.astype(np.int64)
    np.negative(lap, out=lap)
    np.fill_diagonal(lap, g.adjacency.sum(axis=1))
    return lap


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


def _jacobi_schedule(k: int) -> tuple[tuple, np.ndarray]:
    """Jacobi's index arrays for order k, all read-only: one (ps, qs, flat)
    triple per round of ``_round_robin_rounds(k)``, with ``flat = ps * k + qs``
    the pivots' indices into the raveled matrix, and the raveled indices of
    the strict upper triangle, in ``np.triu_indices(k, 1)`` order.
    """
    ps, qs = _round_robin_rounds(k)
    flat = ps * k + qs
    rows, cols = np.triu_indices(k, 1)
    upper = rows * k + cols
    for arr in (ps, qs, flat, upper):
        arr.flags.writeable = False
    return tuple(zip(ps, qs, flat)), upper


_cached_jacobi_schedule = functools.lru_cache(maxsize=JACOBI_CACHED_ORDER)(_jacobi_schedule)


def symmetric_eigenvalues(m) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Pivots follow a round-robin cyclic ordering; rotations within a round act
    on disjoint index pairs, so each round applies as one batched orthogonal
    update.  Converged when the off-diagonal Frobenius mass drops below
    ``JACOBI_CONV_FACTOR * (1 + max |diagonal|)``.  Raises ContractViolation
    for non-symmetric or non-finite input, and ConvergenceError if
    ``JACOBI_MAX_SWEEPS`` sweeps do not suffice or the trace drifts.  ``m`` is unchanged.

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
    result is sorted, so the eigenvalues do not depend on it.  The schedule
    of each order up to ``JACOBI_CACHED_ORDER`` is built once and reused.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"need a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k < 2 and np.isfinite(a).all():  # no rotation: the entry, if any, is the eigenvalue
        return a.ravel().tolist()
    scale = float(abs(a).max())
    if not math.isfinite(scale):
        raise ContractViolation("matrix has a non-finite entry")
    if float(abs(a - a.T).max()) > SYMMETRY_REL_TOL * (1.0 + scale):
        raise ContractViolation("matrix is not symmetric")
    a = (a + a.T) / 2.0

    by_diag = a.diagonal().argsort(kind="stable")
    order = np.empty(k, dtype=np.intp)
    order[0::2] = by_diag[k // 2 :]
    order[1::2] = by_diag[k // 2 - 1 :: -1]
    a = a.take(order, 0).take(order, 1)
    diag = a.diagonal()

    trace_in = float(a.trace())
    schedule = _cached_jacobi_schedule if k <= JACOBI_CACHED_ORDER else _jacobi_schedule
    rounds, upper = schedule(k)
    # pass i tests convergence after i sweeps, so JACOBI_MAX_SWEEPS sweeps may run
    for done in range(JACOBI_MAX_SWEEPS + 1):
        target = JACOBI_CONV_FACTOR * (1.0 + float(abs(diag).max()))
        # summed directly off the strict triangle: the subtraction form
        # trace(A^2) - trace(diag^2) cancels catastrophically near convergence
        off_sq = 2.0 * float(np.sum(np.square(a.take(upper))))
        if math.sqrt(off_sq) < target:
            break
        if done == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
        skip = target / k
        for p, q, flat in rounds:
            apq = a.take(flat)
            big = np.abs(apq) > skip
            if not big.all():
                if not big.any():
                    continue
                p, q, apq = p[big], q[big], apq[big]
            tau = (diag[q] - diag[p]) / (2.0 * apq)
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
    trace_out = float(a.trace())
    if abs(trace_out - trace_in) > TRACE_REL_TOL * max(1.0, abs(trace_in)):
        raise ConvergenceError("Jacobi trace drift exceeds tolerance")
    eigs = diag.copy()
    eigs.sort()
    return eigs.tolist()


def char_poly_exact(m: np.ndarray) -> ExactPolynomial:
    """Exact monic characteristic polynomial det(xI - M).

    Faddeev-LeVerrier over Python integers: with M_1 = I, the coefficient of
    x^(k-j) is c_j = -tr(M M_j) / j, a division that is exact for integer M,
    and M_(j+1) = M M_j + c_j I.  No symmetry is assumed.  M M_1 is M, and
    of M M_k only the trace is read, so k - 2 products are formed whole.

    ``m`` must be a square ndarray of an integer dtype that fits int64.
    Raises OrderCapError above ``CHAR_POLY_MAX_ORDER``.
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
    if k > CHAR_POLY_MAX_ORDER:
        raise OrderCapError(f"order {k} exceeds {CHAR_POLY_MAX_ORDER}, the charpoly limit")
    rows = m.tolist()
    coeffs = [0] * k + [1]
    cols = None  # M_j by columns, once j > 1
    for j in range(1, k + 1):
        if cols is None:
            prod = [list(col) for col in zip(*rows)]
        elif j < k:
            prod = [[sum(map(operator.mul, row, col)) for row in rows] for col in cols]
        else:
            coeffs[0] = -sum(sum(map(operator.mul, row, col)) for row, col in zip(rows, cols)) // k
            break
        c = -sum(col[i] for i, col in enumerate(prod)) // j
        coeffs[k - j] = c
        for i, col in enumerate(prod):
            col[i] += c
        cols = prod
    return ExactPolynomial(coeffs=tuple(coeffs))


def poly_from_spectrum(s: SpectrumMultiset) -> ExactPolynomial:
    """Exact expansion of the product of (x - eigenvalue)^multiplicity."""
    if s.variant != EXACT:
        raise ContractViolation("exact spectrum required")
    coeffs = [1]
    for e, mult in s.items_sorted():
        for _ in range(mult):  # multiply by (x - e)
            coeffs = [a - e * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
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


def _token_twin_classes(table: np.ndarray, weights: np.ndarray):
    """Twin classes of the graph that the bool token ``table`` T and token
    ``weights`` w describe: w_t vertices per token t, and x != y joined iff
    T is true at their tokens.  ``scan_wzd_tokens`` gives WΓ(Z_n) so, and
    ``graphcore.join_tokens`` a generalized join; an explicit graph is its
    adjacency with unit weights.

    Each vertex's row of A is its token's row of T with a 0 at the vertex,
    and its row of A + I the same with a 1 there.  So the vertices of tokens
    t and s (t = s included) are false twins iff the false keys, the rows of
    T with the diagonal cleared, are equal, each key valid, that is w = 1 or
    T[t, t] false; and true twins iff the true keys, the rows with the
    diagonal set, are equal and valid, w = 1 or T[t, t] true.  A false key
    shared by a total weight above 1 makes a class of false twins, and the
    other tokens, whose true keys are all valid, are grouped on those.
    Returns ``(cls, sizes, true_twin)``: the list of each token's class,
    false-twin classes first, each kind in ascending key order and each
    class led by its first token, then per class its size in vertices and
    whether it is of true twins, all three lists.  Keys are the rows' bytes,
    one per token, so they hash and compare in C; their order fixes the
    order of the quotient, and with it the bits of the floating eigenvalues
    that ``laplacian_eigenvalues`` returns.
    """
    m = len(weights)
    rows, w = table.tobytes(), weights.tolist()
    cls = [-1] * m
    sizes: list[int] = []
    true_twin: list[bool] = []
    for true, flag in ((False, b"\0"), (True, b"\1")):
        by_key: dict[bytes, list[int]] = {}
        for t in range(m):
            lo = t * m
            if cls[t] < 0 and (true or w[t] == 1 or not rows[lo + t]):
                key = rows[lo : lo + t] + flag + rows[lo + t + 1 : lo + m]
                by_key.setdefault(key, []).append(t)
        for _, group in sorted(by_key.items()):
            size = sum(w[t] for t in group)
            if true or size > 1:
                for t in group:
                    cls[t] = len(sizes)
                sizes.append(size)
                true_twin.append(true)
    return cls, sizes, true_twin


def _token_class_counts(table: np.ndarray, weights: np.ndarray, twins) -> list[list[int]] | None:
    """B[C, D], the neighbours in class D of each vertex of class C, as m
    lists of m ints, for the ``_token_twin_classes`` ``twins`` of the graph
    of ``table`` and ``weights``; None unless every token carries its class
    leader's key (false or true by the class's kind), its key is valid, and
    each class's size is its tokens' weight.  That exact check makes each
    class one of twins, and a vertex outside two twins is joined to both or
    to neither: two classes are completely joined or not at all, as their
    leader tokens are, and a class of true twins is complete, one of false
    twins empty.  So B[C, D] = |D| T[c, d] for the leader tokens c of C and
    d of D, and B[C, C] is |C| - 1 for true twins and 0 for false ones.
    """
    cls, size, kinds = twins
    m = len(cls)
    rows, w = table.tobytes(), weights.tolist()
    heads: dict[int, tuple[int, bytes]] = {}  # each class's first token and its key
    weight = [0] * len(kinds)
    for t, c in enumerate(cls):
        lo, kind = t * m, kinds[c]
        key = rows[lo : lo + t] + (b"\1" if kind else b"\0") + rows[lo + t + 1 : lo + m]
        if (w[t] > 1 and rows[lo + t] != kind) or heads.setdefault(c, (t, key))[1] != key:
            return None
        weight[c] += w[t]
    if weight != size or len(heads) != len(kinds):
        return None
    leads = [heads[c][0] for c in range(len(kinds))]
    return [
        [(s - 1) * kinds[c] if c == d else s * rows[t * m + u]
         for d, (u, s) in enumerate(zip(leads, size))]
        for c, t in enumerate(leads)
    ]


def check_jacobi_order(name: str, order: int) -> None:
    """Raise OrderCapError when ``name`` would hand Jacobi a matrix of
    ``order`` above ``JACOBI_MAX_ORDER``."""
    if order > JACOBI_MAX_ORDER:
        raise OrderCapError(
            f"{name} leaves Jacobi order {order}, above its limit of {JACOBI_MAX_ORDER}"
        )


def quotient_eigenvalues(b, sizes) -> list[float]:
    """Eigenvalues, ascending, of D - B, D = diag(B 1), for the m x m counts
    ``b`` of an equitable partition with class ``sizes``: a twin quotient,
    or a join's host with B[i, j] = w_j on host edges and sizes w.  As
    B[i, j] sizes[i] = B[j, i] sizes[j], D - B is similar to the symmetric
    S = D - sqrt(B o B^T), and S sqrt(sizes) = 0 on each connected component
    C of B's support.  One Householder reflection takes sqrt(sizes[C]) to
    C's first class, an exact 0.0, and Jacobi gets the other |C| - 1 rows.
    It runs in float64, and raises OverflowError past the float range.
    """
    m = len(sizes)
    b = np.asarray(b, dtype=np.float64).reshape(m, m)  # m = 0 as well: no class, no row
    sizes = np.asarray(sizes, dtype=np.float64)
    try:
        with np.errstate(over="raise"):  # a row sum or product past the range
            s = np.diag(b.sum(axis=1)) - np.sqrt(b * b.T)
    except FloatingPointError:
        raise OverflowError("int too large to convert to float") from None
    edges, parts, seen = (b > 0).tolist(), [], [False] * m
    for root in range(m):  # the components, by an O(m^2) search
        if not seen[root]:
            seen[root] = True
            part = [root]
            for i in part:  # grows as the search reaches new classes
                for j in itertools.compress(range(m), edges[i]):
                    if not seen[j]:
                        seen[j] = True
                        part.append(j)
            parts.append(sorted(part))
    eigs = [0.0] * len(parts)
    for part in parts:
        if len(part) < 2:  # a lone class: its 0.0 is all there is
            continue
        # one component: S itself, ungathered, so its bits stay as built
        sub, c = (s, sizes) if len(part) == m else (s[np.ix_(part, part)], sizes[part])
        # v = u - e_0 with u = sqrt(c / sum(c)), a unit vector
        v = np.sqrt(c / c.sum())
        v[0] -= 1.0
        w = v * (2.0 / float(v @ v))
        sub -= w[:, None] * (v @ sub)
        sub -= (sub @ v)[:, None] * w
        eigs += symmetric_eigenvalues(sub[1:, 1:])
    eigs.sort()
    return eigs


def _twin_quotient_runs(twins, b) -> tuple[list[float], list[tuple]]:
    """The m eigenvalues of the quotient D - B (``quotient_eigenvalues``) of
    a graph with twin classes ``twins`` and class counts ``b``, and its whole
    Laplacian spectrum as ascending (eigenvalue, multiplicity) runs: those m
    once each, and per class of c >= 2 the int d, or d + 1 for true twins,
    c - 1 times.  Raises OrderCapError, before any sweep, above
    ``JACOBI_MAX_ORDER``.
    """
    _, sizes, true_twin = twins
    check_jacobi_order("the twin reduction", len(sizes) - 1)
    quotient = quotient_eigenvalues(b, sizes)
    runs = [(e, 1) for e in quotient]
    runs += [(sum(row) + true, c - 1) for row, c, true in zip(b, sizes, true_twin) if c > 1]
    runs.sort()
    return quotient, runs


def laplacian_eigenvalues(table: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """Laplacian spectrum, as ascending (eigenvalue, multiplicity) runs
    (``_twin_quotient_runs``), of the graph of the token ``table`` and
    ``weights`` (``_token_twin_classes``), from its twin quotient.  Raises
    OrderCapError above ``JACOBI_MAX_ORDER`` before the classes are counted.
    """
    twins = _token_twin_classes(table, weights)
    check_jacobi_order("the twin reduction", len(twins[1]) - 1)
    return _twin_quotient_runs(twins, _token_class_counts(table, weights, twins))[1]


def _quotient_certificate(spectrum: SpectrumMultiset, twins, b) -> bool:
    """Exact proof that ``spectrum`` is the Laplacian spectrum of a graph
    with twin classes ``twins`` and class counts ``b``
    (``_token_class_counts``).

    For twins x and y of degree d, e_x - e_y is an eigenvector of L with
    eigenvalue d (false twins) or d + 1 (true twins), so a twin class of
    size c gives that eigenvalue c - 1 times.  The differences are
    orthogonal to the columns of the class-indicator matrix P, and the two
    spaces together span R^k.  The counting checks the twins exactly,
    and twin classes are equitable, A P = P B, so L P = P Q for Q = D - B,
    D the degrees of the classes: the other eigenvalues are those of the
    m x m quotient Q.  The twin eigenvalues are removed from ``spectrum``
    and the rest must equal the roots of det(xI - Q).  A Q above
    ``CHAR_POLY_MAX_ORDER`` proves nothing, and gives False.
    """
    if spectrum.variant != EXACT:
        raise ContractViolation("exact spectrum required")
    _, sizes, true_twin = twins
    m = len(sizes)
    if spectrum.order != sum(sizes) or m > CHAR_POLY_MAX_ORDER:
        return False
    deg = [sum(row) for row in b]
    q = [[-x for x in row] for row in b]
    for i, d in enumerate(deg):
        q[i][i] += d
    residual = dict(spectrum.entries)
    for eig, size in zip(map(operator.add, deg, true_twin), sizes):
        left = residual.get(eig, 0) - (size - 1)
        if left < 0:
            return False
        residual[eig] = left
    poly = char_poly_exact(np.array(q, dtype=np.int64).reshape(m, m))
    return poly_matches_spectrum(poly, SpectrumMultiset.exact(residual.items()))


def integrality_check(eigs, tol: float) -> bool:
    """Whether every eigenvalue sits within ``tol`` of an integer.

    Raises DomainError unless 0 < tol < inf, and for a non-finite eigenvalue.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    for e in eigs:
        if not math.isfinite(e):
            raise DomainError(f"eigenvalue {e} is not finite")
    # a half is as far from either neighbour, so how round breaks ties does not matter
    return all(abs(e - round(e)) <= tol for e in eigs)


STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_DEGENERATE = "DEGENERATE-EMPTY"

NUMERIC_MATCH_TOL = 1e-8


def eigenvalues_match(numeric, expected) -> bool:
    """Whether two ascending (eigenvalue, multiplicity >= 0) run lists hold
    as many eigenvalues, each of ``numeric`` within ``NUMERIC_MATCH_TOL``
    times the order of the one at its place in ``expected``; the runs are
    walked in step, never expanded."""
    order = sum(mult for _, mult in expected)
    if sum(mult for _, mult in numeric) != order:
        return False
    tol = NUMERIC_MATCH_TOL * max(1, order)
    places = iter(expected)
    b = left = 0  # the expected eigenvalue, and how many of it are not yet paired
    for a, mult in numeric:
        while mult > 0:
            while left <= 0:
                b, left = next(places)
            if not abs(a - b) <= tol:
                return False
            step = min(mult, left)
            mult -= step
            left -= step
    return True


class VerificationReport(Record):
    __slots__ = ("n", "status", "checks", "spectrum", "charpoly_skipped")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable

    def __init__(
        self, n: int, status: str, checks: dict, spectrum: SpectrumMultiset, charpoly_skipped=False
    ) -> None:
        self.n = n
        self.status = status
        self.checks = checks
        self.spectrum = spectrum
        self.charpoly_skipped = charpoly_skipped

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
    order_cap: int | None = None,
) -> VerificationReport:
    """Run every check for one n and aggregate the result.

    Checks: the two constructions agree; the closed-form trace equals twice
    the edge count; the twin-quotient certificate proves the closed form
    exactly (skipped above ``order_cap``, if given); numeric eigenvalues match
    the closed form elementwise; and all numeric eigenvalues are
    near-integers.

    Every check reads the definition scan's tokens (``scan_wzd_tokens``): the
    vertices, each one's least annihilator r0, the token weights w and the
    token table T, with no k x k matrix.  The constructions agree when
    ``scan_matches_classes`` holds against ``divisor_classes(n)``.  The
    edge count is read off T: 2|E| = sum w_t w_s T[t, s] - sum w_t T[t, t].
    The twin quotient is found on the tokens' keys (``_token_twin_classes``)
    and counted once (``_token_class_counts``), for the certificate and the
    numeric eigenvalues, compared with the closed form as (eigenvalue,
    multiplicity) runs; integrality is read off the quotient's eigenvalues,
    as the twin ones are ints.  When its classes are not twins, or Jacobi
    would get an order above ``JACOBI_MAX_ORDER``, the checks that need it
    fail.
    With no vertex in the closed form or the scan, as for a prime, the three
    spectral checks hold vacuously and are not run.

    Raises OrderCapError, before any vertex is listed, when the closed-form
    order is above ``graphcore.MAX_GRAPH_ORDER``, or when n is above
    ``graphcore.MAX_SCAN_MODULUS``, which only a prime can reach past the
    order limit.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    closed = wzd_spectrum_closed_form(n)
    order = closed.order
    check_graph_order(f"WΓ(Z_{n})", order)
    scan = scan_wzd_tokens(n)
    verts, _, weights, table = scan
    checks = {"construction_equal": scan_matches_classes(n, scan, divisor_classes(n))}
    degree_sum = int(weights @ table @ weights - weights @ table.diagonal())
    checks["trace_edges"] = closed.trace() == degree_sum
    charpoly_skipped = order_cap is not None and order > order_cap

    if order == 0 == len(verts):  # no vertex: the spectral checks hold vacuously
        checks.update(charpoly_match=True, numeric_match=True, integral=True)
    else:
        twins = _token_twin_classes(table, weights)
        counts = _token_class_counts(table, weights, twins)
        checks["charpoly_match"] = charpoly_skipped or (
            counts is not None and _quotient_certificate(closed, twins, counts)
        )
        try:
            quotient, runs = (None, None) if counts is None else _twin_quotient_runs(twins, counts)
        except OrderCapError:
            quotient = runs = None
        same_order = runs is not None and sum(mult for _, mult in runs) == order
        checks["numeric_match"] = same_order and eigenvalues_match(runs, closed.items_sorted())
        # the twin runs are ints: only the quotient's eigenvalues can miss
        checks["integral"] = same_order and integrality_check(quotient, integral_tol)

    ok = STATUS_DEGENERATE if order == 0 else STATUS_PASS
    return VerificationReport(
        n=n,
        status=ok if all(checks.values()) else STATUS_FAIL,
        checks=checks,
        spectrum=closed,
        charpoly_skipped=charpoly_skipped,
    )
