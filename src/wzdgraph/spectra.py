"""Closed-form Laplacian spectra for generalized joins and for WΓ(Z_n).

The generic engine follows the join spectrum theorem: given a host graph on k
vertices with vertex weights n_i equal to the component orders, the Laplacian
spectrum of the join is the union over i of (D_i + component spectrum with one
0 removed) together with the spectrum of the k x k weighted host matrix, where
D_i is the total weight of the host neighbors of vertex i.

The join engine serves ``wzd join``.  WΓ(Z_n) is such a join, over the
complete host on the proper divisors d of n with weight phi(n/d), but
``wzd_spectrum_closed_form`` builds no host: it reads the whole spectrum from
one factorization of n.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .errors import ContractViolation, DomainError
from .numtheory import factorize

EXACT = "exact"
FLOAT = "float"

#: absolute tolerance for merging near-equal floating eigenvalues
MERGE_TOL = 1e-7

#: how far from an integer a numeric eigenvalue may lie and still count as
#: one: the default of ``oracle.verify_spectrum`` and of ``wzd verify --tol``
INTEGRAL_TOL = 1e-6


class Kind(Enum):
    """Shape of the subgraph induced by one divisor class."""

    COMPLETE = "complete"
    EMPTY = "empty"


class WeightedHostGraph(Record):
    """Host graph whose vertex i carries a positive integer weight.

    For the WΓ(Z_n) specialization the labels are the proper divisors of n and
    the adjacency is complete; the generic join engine accepts any irreflexive
    symmetric adjacency, given as index pairs (i, j) with i < j.
    """

    __slots__ = ("labels", "weights", "edges")

    def __init__(self, labels: tuple, weights: tuple[int, ...], edges: frozenset) -> None:
        k = len(labels)
        if len(set(labels)) != k:
            raise ContractViolation("duplicate host labels")
        if len(weights) != k:
            raise ContractViolation("one weight per host vertex required")
        if any(type(w) is not int or w < 1 for w in weights):
            raise ContractViolation("host weights must be integers >= 1")
        for i, j in edges:
            if not (0 <= i < j < k):
                raise ContractViolation(f"bad host edge ({i}, {j})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", edges)

    @property
    def order(self) -> int:
        return len(self.labels)

    def is_complete(self) -> bool:
        k = len(self.labels)
        return len(self.edges) == k * (k - 1) // 2

    def neighbor_weight_sums(self) -> list[int]:
        """D_i = total weight of the host neighbors of vertex i (0 if isolated)."""
        d = [0] * len(self.labels)
        for i, j in self.edges:
            d[i] += self.weights[j]
            d[j] += self.weights[i]
        return d


class SpectrumMultiset(Record):
    """Eigenvalue -> multiplicity map, exact-integer or floating.

    Exact spectra carry int eigenvalues; floating ones carry floats that were
    merged at ``MERGE_TOL``.  ``n`` tags spectra of WΓ(Z_n) with their modulus.
    """

    __slots__ = ("entries", "variant", "n")

    def __init__(self, entries: dict, variant: str = EXACT, n: int | None = None) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "n", n)

    @property
    def order(self) -> int:
        return sum(self.entries.values())

    def items_sorted(self) -> list[tuple]:
        return sorted(self.entries.items())

    def trace(self):
        return sum(e * m for e, m in self.entries.items())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant,
            "order": self.order,
            "entries": [
                {"eigenvalue": e, "multiplicity": m} for e, m in self.items_sorted()
            ],
        }

    @classmethod
    def exact(cls, pairs, n: int | None = None) -> "SpectrumMultiset":
        entries: dict[int, int] = {}
        for e, m in pairs:
            if m < 0:
                raise ContractViolation("negative multiplicity")
            if m:
                entries[int(e)] = entries.get(int(e), 0) + m
        return cls(entries=entries, variant=EXACT, n=n)

    @classmethod
    def floating(cls, pairs, n: int | None = None) -> "SpectrumMultiset":
        merged: list[list] = []
        for e, m in sorted((float(e), m) for e, m in pairs if m):
            if merged and abs(e - merged[-1][0]) <= MERGE_TOL:
                merged[-1][1] += m
            else:
                merged.append([e, m])
        return cls(entries={e: m for e, m in merged}, variant=FLOAT, n=n)


def component_spectrum(order: int, kind: Kind) -> SpectrumMultiset:
    """Laplacian spectrum of K_m (kind COMPLETE) or of its complement (EMPTY)."""
    if order < 1:
        raise DomainError(f"component order must be >= 1, got {order}")
    if kind is Kind.COMPLETE:
        return SpectrumMultiset.exact([(0, 1), (order, order - 1)])
    return SpectrumMultiset.exact([(0, order)])


def _host_spectrum_pairs(host: WeightedHostGraph) -> tuple[list, bool]:
    """Eigenvalue pairs of the host matrix and whether they are exact.

    Edgeless hosts give {0^k}; complete hosts give {0, (sum of weights)^(k-1)}
    by the rank-one decomposition.  Any other host matrix, diagonal D_i and
    -n_j on edges, is the quotient D - B of an equitable partition with
    class sizes n_i, and goes to ``oracle.quotient_eigenvalues``, which
    gives each connected component of the host an exact 0.0.  It is refused
    with OrderCapError, before its matrix is built, above
    ``oracle.JACOBI_MAX_ORDER`` vertices.
    """
    k = host.order
    if k == 0:
        return [], True
    if not host.edges:
        return [(0, k)], True
    if host.is_complete():
        total = sum(host.weights)
        return [(0, 1), (total, k - 1)], True
    from .oracle import check_jacobi_order, quotient_eigenvalues  # deferred: oracle imports this

    check_jacobi_order("a host neither complete nor edgeless", k)
    b = [[0] * k for _ in range(k)]
    for i, j in host.edges:
        b[i][j], b[j][i] = host.weights[j], host.weights[i]
    return [(e, 1) for e in quotient_eigenvalues(b, host.weights)], False


def _strip_one_zero(s: SpectrumMultiset) -> list[tuple]:
    pairs = s.items_sorted()
    if not pairs:
        raise ContractViolation("empty component spectrum")
    e0, m0 = pairs[0]
    near_zero = e0 == 0 if s.variant == EXACT else abs(e0) <= MERGE_TOL
    if not near_zero:
        raise ContractViolation("component spectrum lacks eigenvalue 0")
    rest = [(e0, m0 - 1)] if m0 > 1 else []
    return rest + pairs[1:]


def join_spectrum(
    host: WeightedHostGraph, components: list[SpectrumMultiset], n: int | None = None
) -> SpectrumMultiset:
    """Laplacian spectrum of the generalized join of ``components`` over ``host``.

    Requires components[i].order == host.weights[i].  The result is exact when
    the host spectrum is exact (complete or edgeless host) and every component
    spectrum is exact; otherwise floating, merged at ``MERGE_TOL``.  ``n``
    tags the result, as for spectra of WΓ(Z_n).
    """
    if len(components) != host.order:
        raise ContractViolation(
            f"host has {host.order} vertices but {len(components)} components given"
        )
    for i, c in enumerate(components):
        if c.order != host.weights[i]:
            raise ContractViolation(
                f"component {i} has order {c.order}, host weight is {host.weights[i]}"
            )
    host_pairs, host_exact = _host_spectrum_pairs(host)
    exact = host_exact and all(c.variant == EXACT for c in components)
    d = host.neighbor_weight_sums()
    pairs = list(host_pairs)
    for i, c in enumerate(components):
        pairs.extend((e + d[i], m) for e, m in _strip_one_zero(c))
    if exact:
        return SpectrumMultiset.exact(pairs, n=n)
    return SpectrumMultiset.floating(pairs, n=n)


def wzd_spectrum_closed_form(n: int) -> SpectrumMultiset:
    """Exact Laplacian spectrum of WΓ(Z_n).

    With V = n - phi(n) - 1 vertices and A' the set of primes dividing n
    exactly once: if A' is empty the graph is complete and the spectrum is
    {0, V^(V-1)}; otherwise it is {0} with V at multiplicity
    (sum of phi(n/d) over proper divisors d outside A') + |A'| - 1, plus
    V - phi(n/p) at multiplicity phi(n/p) - 1 for each p in A'.

    Everything comes from one factorization of n: phi(n/p) = phi(n)/(p - 1)
    for p in A', and the sum of phi(n/d) over all divisors d is n, so the sum
    over proper divisors outside A' is V minus the phi(n/p).
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    f = factorize(n)
    if f.factors == ((n, 1),):
        return SpectrumMultiset.exact([], n=n)
    phi = f.totient
    v = n - phi - 1
    exact = sorted(f.exponent_one_primes())
    if not exact:
        return SpectrumMultiset.exact([(0, 1), (v, v - 1)], n=n)
    class_sizes = [phi // (p - 1) for p in exact]
    pairs = [(0, 1), (v, v - sum(class_sizes) + len(exact) - 1)]
    pairs += [(v - size, size - 1) for size in class_sizes]
    return SpectrumMultiset.exact(pairs, n=n)


def algebraic_connectivity(s: SpectrumMultiset):
    """Second-smallest eigenvalue counting multiplicity.

    Read from the sorted (eigenvalue, multiplicity) pairs, never from the
    expanded list, whose length is the order of the graph.
    """
    if s.order < 2:
        raise DomainError("algebraic connectivity needs order >= 2")
    seen = 0
    for e, m in s.items_sorted():
        seen += m
        if seen >= 2:
            return e


def spectral_radius(s: SpectrumMultiset):
    """Largest eigenvalue."""
    if s.order < 1:
        raise DomainError("spectral radius of an empty spectrum is undefined")
    return max(s.entries)
