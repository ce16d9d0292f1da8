"""Construction of WΓ(Z_n) and of generalized joins, plus graph serialization.

WΓ(Z_n) is built two independent ways:

* ``scan_wzd_tokens`` scans the adjacency definition directly: x ~ y iff
  some nonzero r annihilating x and nonzero s annihilating y have rs = 0 mod n.
  Vertices and annihilators come from raw tests on the divisors of n, no gcd.
  It keys each vertex on its least annihilator r0, its token, and returns the
  tokens' adjacency as one (tau(n) - 2)-square table T; ``build_bruteforce_wzd``
  expands T into the k x k ``Graph``.
* ``divisor_classes`` partitions the vertices into the classes
  A_d = {x : gcd(x, n) = d}, pairwise completely joined, each inducing a
  complete or an empty subgraph; ``build_structural_wzd`` assembles the
  ``Graph`` from them.

Agreement of the two routes is one of the package's core verification
checks.  ``verify_spectrum`` makes it on the tokens, with no k x k matrix:
``scan_matches_classes`` holds iff the scan's graph is the class graph with
each token the class it keys.  ``graphs_equal`` compares two built graphs.
``export_graph`` writes WΓ(Z_n) from its divisor classes alone, with neither
builder.

A generalized join takes the same token form, a table T and token weights:
``join_tokens`` gives one token per complete or empty component and one per
vertex of an edge-list component, and ``oracle.twin_quotient`` solves it as
it solves the scan's ``scan[2:]``: no ``Graph`` is built for a join.
"""

from __future__ import annotations

from math import gcd as _gcd, isqrt

from ._numpy import np
from ._record import Record
from .errors import DomainError, OrderCapError
from .numtheory import factorize
from .spectra import Kind

#: Largest order n - phi(n) - 1 that ``divisor_classes`` and ``verify_spectrum``,
#: and so ``wzd graph`` and ``wzd verify``, accept.  An export grows as its
#: square: at order 4090 (n = 4091^2, complete, 8-digit labels)
#: ``wzd graph --format dot`` peaks at about 0.56 GB.
MAX_GRAPH_ORDER = 4096

#: Largest n that ``scan_wzd_tokens``, and so ``wzd verify``, scans.  A
#: composite n has at least n/p - 1 >= sqrt(n) - 1 zero-divisors, p its least
#: prime, so every composite above this bound is refused by the order limit
#: already; the bound refuses the primes.  It keeps the scan's sqrt(n) divisor
#: test short and its int64 products x*d below n^2 < 2^63.
MAX_SCAN_MODULUS = (MAX_GRAPH_ORDER + 1) ** 2

#: Side of the square tiles in which ``Graph`` checks its adjacency for
#: symmetry; a graph of order up to this is checked in one piece.
SYMMETRY_TILE = 512


class Graph(Record):
    """Simple undirected graph with a deterministic vertex order.

    ``labels`` are the vertex names (residues mod n, ascending, when the graph
    came from Z_n); ``adjacency`` is the read-only k x k boolean adjacency
    matrix, row and column i belonging to ``labels[i]``.  ``modulus`` is the n
    the graph was built from, or None for generic graphs.  Compare graphs with
    ``graphs_equal``.
    """

    __slots__ = ("labels", "adjacency", "modulus")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: compare with graphs_equal

    def __init__(self, labels: tuple, adjacency: np.ndarray, modulus: int | None = None) -> None:
        k = len(labels)
        if len(set(labels)) != k:
            raise DomainError("duplicate vertex labels")
        # its own copy, in C order, the row-major layout the tiles below assume
        adj = np.array(adjacency, order="C")
        if adj.dtype != bool or adj.shape != (k, k):
            raise DomainError(
                f"need a {k} x {k} boolean adjacency, got {adj.dtype} {adj.shape}"
            )
        if adj.diagonal().any():
            raise DomainError("adjacency has a self-loop")
        # tile (i, j) against tile (j, i) transposed: a whole-matrix transpose
        # reads with a stride of k bytes, which misses the cache at large k
        t = SYMMETRY_TILE
        for i in range(0, k, t):
            for j in range(i, k, t):
                if not np.array_equal(adj[i : i + t, j : j + t], adj[j : j + t, i : i + t].T):
                    raise DomainError("adjacency is not symmetric")
        adj.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "modulus", modulus)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


class DivisorClass(Record):
    """The set A_d = {x : gcd(x, n) = d} of a proper divisor d of n, tagged
    complete or empty by the subgraph it induces."""

    __slots__ = ("divisor", "members", "kind")

    def __init__(self, divisor: int, members: tuple[int, ...], kind: Kind) -> None:
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "kind", kind)

    @property
    def size(self) -> int:
        return len(self.members)


def _divisors(n: int) -> list[int]:
    """Divisors of n, ascending: each d <= sqrt(n) with n mod d = 0, then n // d."""
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def zero_divisors(n: int, divs: list[int] | None = None) -> list[int]:
    """Nonzero zero-divisors of Z_n, ascending; empty when n is prime.
    ``divs`` is ``_divisors(n)``, when the caller has it already.

    x != 0 is one iff some d | n, 1 < d < n, divides x: then x * n/d = 0; and
    x*y = 0, y != 0 gives 1 < r0 <= y < n for r0 = min ann(x) - {0}, which
    divides n (``_least_annihilators``), so d = n/r0 divides x.  Such a d is a
    multiple of a minimal proper divisor, one that no smaller proper divisor
    divides: the least proper divisor of n dividing d is one.  The minimal
    ones are the primes of n, so there are n - 1 - phi(n) zero-divisors, and
    above ``MAX_GRAPH_ORDER`` OrderCapError is raised before any is listed.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    minimal: list[int] = []
    for d in (_divisors(n) if divs is None else divs)[1:-1]:
        if all(d % m for m in minimal):
            minimal.append(d)
    phi = n
    for p in minimal or [n]:
        phi -= phi // p
    check_graph_order(f"WΓ(Z_{n})", n - 1 - phi)
    return sorted({x for d in minimal for x in range(d, n, d)})


def _least_annihilators(n: int, verts: list[int], divs: list[int]) -> np.ndarray:
    """Least r >= 1 with r*x = 0 mod n, for each x of ``verts``, by the raw test
    over ``divs``, the divisors of n (``_divisors``).

    Only the divisors of n need the test: for the least r0 of ann(x) - {0},
    gcd(r0, n) = a*r0 + b*n = a*r0 mod n lies in ann(x), so r0 = gcd(r0, n)
    divides n.  Divisors ascend and the last, n, always hits, so the first hit
    of each row of the k x tau(n) test (needs n^2 < 2^63) is r0.
    """
    divs = np.array(divs, dtype=np.int64)
    hit = np.multiply.outer(np.array(verts, dtype=np.int64), divs) % n == 0
    return divs[hit.argmax(axis=1)]


def scan_wzd_tokens(n: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """WΓ(Z_n) by direct definition scan over annihilator element pairs, on
    tokens: ``(verts, least, table, weights)``.

    The annihilator of x is an additive subgroup of Z_n, so it is cyclic: the
    multiples of its least positive element r0 (``_least_annihilators``).
    Vertices are keyed on r0, their token.  A witness is nonzero (else every
    pair would be adjacent), so it is a vertex, and r*x = 0 depends only on
    the two annihilators, as r kills x iff x kills r.  With Z[a, c] = (x_a *
    x_c = 0 mod n) for one representative x_a per token, x != y are adjacent
    iff T = Z Z Z (int64, entries at most m^2 for m tokens) is positive at
    their tokens.

    Returns the vertices, ascending; each vertex's r0; the m x m bool table
    T > 0; and the number of vertices of each token, both by token in
    ascending r0, so ``scan[2:]`` is the ``(table, weights)`` pair that
    ``join_tokens`` returns and ``oracle.twin_quotient`` takes.  There are
    tau(n) - 2 tokens, one per proper divisor, so nothing here is k x k for
    k vertices.  No ``factorize``, ``numtheory.divisors`` or gcd:
    the scan stays independent of ``divisor_classes``, which is what makes
    ``scan_matches_classes`` a check.  Raises OrderCapError above
    ``MAX_SCAN_MODULUS``, or above ``MAX_GRAPH_ORDER`` vertices before they are
    listed (``zero_divisors``).
    """
    if n > MAX_SCAN_MODULUS:
        raise OrderCapError(
            f"n = {n} is above {MAX_SCAN_MODULUS}, the largest modulus the "
            f"definition scan takes"
        )
    divs = _divisors(n)  # one list for the vertices and the annihilators
    verts = zero_divisors(n, divs)
    if not verts:  # n is prime
        empty = np.zeros(0, dtype=np.int64)
        return verts, empty, np.zeros((0, 0), dtype=bool), empty
    least = _least_annihilators(n, verts, divs)
    # each vertex's token as its r0's place among the divisors, which ascend
    at = np.searchsorted(divs, least)
    counts = np.bincount(at, minlength=len(divs))
    tokens = counts.nonzero()[0]
    first = np.full(len(divs), len(verts))
    np.minimum.at(first, at, np.arange(len(verts)))  # each token's first vertex
    weights = counts[tokens]
    rep = np.array(verts, dtype=np.int64)[first[tokens]]
    zero = (np.multiply.outer(rep, rep) % n == 0).astype(np.int64)
    return verts, least, zero @ zero @ zero > 0, weights


def build_bruteforce_wzd(n: int) -> Graph:
    """WΓ(Z_n) from ``scan_wzd_tokens``: each token's row of T, taken once per
    vertex of the token, with no self-loop."""
    verts, least, table, _ = scan_wzd_tokens(n)
    vert_tok = np.unique(least, return_inverse=True)[1]
    adj = table.take(vert_tok, 0).take(vert_tok, 1)
    np.fill_diagonal(adj, False)
    return Graph(labels=tuple(verts), adjacency=adj, modulus=n)


def check_graph_order(name: str, order: int) -> None:
    """Raise OrderCapError when the graph ``name``, of ``order`` vertices, is
    above ``MAX_GRAPH_ORDER``."""
    if order > MAX_GRAPH_ORDER:
        raise OrderCapError(
            f"{name} has {order} vertices, above the limit of {MAX_GRAPH_ORDER}"
        )


def divisor_classes(n: int) -> tuple[DivisorClass, ...]:
    """Partition of the nonzero zero-divisors of Z_n by gcd with n: one class
    per proper divisor, ascending, and none when n is prime.

    Refuses, before the scan, more than ``MAX_GRAPH_ORDER`` zero-divisors.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    f = factorize(n)
    check_graph_order(f"WΓ(Z_{n})", n - f.totient - 1)
    proper = f.divisors()[1:-1]
    if not proper:  # n is prime
        return ()
    members: dict[int, list[int]] = {d: [] for d in proper}
    # the zero-divisors are the multiples of n's primes: sum n/p residues, not n - 1
    for x in sorted({x for p, _ in f.factors for x in range(p, n, p)}):
        members[_gcd(x, n)].append(x)
    exact = f.exponent_one_primes()
    return tuple(
        DivisorClass(
            divisor=d,
            members=tuple(members[d]),
            kind=Kind.EMPTY if d in exact else Kind.COMPLETE,
        )
        for d in sorted(members)
    )


def build_structural_wzd(n: int) -> Graph:
    """WΓ(Z_n) assembled from its divisor-class partition.

    All cross-class pairs are adjacent; within a class, adjacency is complete
    or absent according to the class kind.  Vertex order matches
    ``build_bruteforce_wzd`` (ascending residues).
    """
    classes = divisor_classes(n)
    if not classes:  # n is prime: no zero-divisors
        return Graph(labels=(), adjacency=np.zeros((0, 0), dtype=bool), modulus=n)
    members = np.concatenate([c.members for c in classes])
    order = np.argsort(members)
    # class index of each vertex, vertices in ascending residue order
    cls = np.repeat(np.arange(len(classes)), [c.size for c in classes])[order]
    complete = np.array([c.kind is Kind.COMPLETE for c in classes])
    adj = (cls[:, None] != cls[None, :]) | complete[cls][:, None]
    np.fill_diagonal(adj, False)
    return Graph(labels=tuple(members[order].tolist()), adjacency=adj, modulus=n)


def graphs_equal(g1: Graph, g2: Graph) -> bool:
    """True iff identical vertex label lists and identical edge sets."""
    return g1.labels == g2.labels and np.array_equal(g1.adjacency, g2.adjacency)


def scan_matches_classes(n: int, scan, classes: tuple[DivisorClass, ...], rows) -> bool:
    """Whether ``scan_wzd_tokens(n)`` and ``divisor_classes(n)`` give one graph,
    each token the class it keys, checked on the tokens with no k x k matrix.

    The scan joins x != y iff T is true at their tokens; the classes join
    x != y unless both lie in one empty class.  The check is that

    1. the vertex lists are equal;
    2. every vertex's token r0 is n/d for its class A_d, and each token's
       weight is its class's size;
    3. every off-diagonal entry of T is true;
    4. T[t, t] is true iff the class of t is complete, for every token t of
       weight 2 or more.

    Proof.  Under 1 and 2 two vertices share a token iff they share a class,
    as d -> n/d is one-to-one, and every class has a member, d itself: the
    tokens, ascending in r0 = n/d, are the classes in descending d.  Then a
    pair from two classes is joined by the scan iff T is true at two distinct
    tokens, and always by the classes; every off-diagonal entry is read by
    some such pair, so the graphs agree on them iff 3 holds.  A pair inside
    one class exists iff its token has weight 2 or more; the scan joins it
    iff T[t, t] and the classes iff the class is complete, so the graphs
    agree on them iff 4 holds.  The diagonal of a token of weight 1 joins no
    pair and is not read.  So, given 1 and 2, the graphs are equal iff 3 and
    4 hold.  2 asks more than graph equality alone: a vertex whose scanned r0
    is wrong is a wrong scan even where its row happens to come out right.

    ``rows`` is ``table.tolist()``, which the caller reads as well.
    """
    verts, least, table, weights = scan
    rev = classes[::-1]  # tokens ascend in r0 = n/d: the classes in descending d
    if table.shape != (len(rev), len(rev)) or weights.tolist() != [c.size for c in rev]:
        return False
    r0 = {x: n // c.divisor for c in rev for x in c.members}
    if verts != sorted(r0) or least.tolist() != [r0[x] for x in verts]:
        return False
    return all(
        row.count(False) == (not row[t])  # off the diagonal, every entry is true
        and (c.size < 2 or row[t] == (c.kind is Kind.COMPLETE))
        for t, (row, c) in enumerate(zip(rows, rev))
    )


def join_tokens(
    host_edges: set[tuple[int, int]], parts: list[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized join in ``scan_wzd_tokens``' token form ``(table, weights)``:
    host vertex i replaced by the graph of the token pair ``parts[i]``.

    A complete or empty component of order c is one token of weight c, its
    diagonal entry true iff complete; an edge list is one token of weight 1
    per vertex, its table the adjacency.  Host edges are index pairs into
    ``parts``.  The tokens come in part order; each part's table fills its
    diagonal block and each host edge a pair of off-diagonal blocks.
    """
    offsets = [0]
    for _, weights in parts:
        offsets.append(offsets[-1] + len(weights))
    blocks = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    table = np.zeros((offsets[-1], offsets[-1]), dtype=bool)
    for block, (part, _) in zip(blocks, parts):
        table[block, block] = part
    for i, j in host_edges:
        table[blocks[i], blocks[j]] = table[blocks[j], blocks[i]] = True
    return table, np.array([w for _, weights in parts for w in weights], dtype=np.int64)


GRAPH_FORMATS = ("dot", "json", "csv")

#: per format, each edge (u, v) is prefix(u) + v + suffix, with ``between``
#: between two edges
_EDGE_FORMATS = {
    "csv": ("{},", "\n", ""),
    "dot": ("  {} -- ", ";\n", ""),
    "json": ("[{}, ", "]", ", "),
}


def export_graph(n: int, classes: tuple[DivisorClass, ...], fmt: str) -> str:
    """WΓ(Z_n) in DOT, JSON or CSV edge-list form, from ``divisor_classes(n)``.

    Vertices ascend and edges are pairs (u, v), u < v, sorted.  Classes are
    completely joined and each is complete or empty, so x < y are adjacent
    unless both lie in one empty class: the later neighbours of the vertex at
    position i are the vertices after it or, for the j-th member of an empty
    class, the class's non-members from the (i - j)-th on.  Each row is one
    ``str.join`` of a list slice.  CSV lists one ``u,v`` line per edge, then
    the isolated vertices as single-field lines so the vertex set
    round-trips; there are any only when the graph has no edge (n = 4).
    """
    if fmt not in GRAPH_FORMATS:
        raise DomainError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    prefix, suffix, between = _EDGE_FORMATS[fmt]
    labels = sorted(x for c in classes for x in c.members)
    names = [str(x) for x in labels]
    # each member of an empty class -> its class's non-members, and its place j
    outside: dict[int, tuple[list[str], int]] = {}
    for c in classes:
        if c.kind is Kind.EMPTY:
            inside = set(c.members)
            rest = [u for x, u in zip(labels, names) if x not in inside]
            outside.update((x, (rest, j)) for j, x in enumerate(c.members))
    rows: list[str] = []  # head, edges, end per row: one join copies the text once
    for i, (x, u) in enumerate(zip(labels, names)):
        if x in outside:
            rest, j = outside[x]
            later = rest[i - j :]
        else:
            later = names[i + 1 :]
        if later:
            head = prefix.format(u)
            rows += (head, (suffix + between + head).join(later), suffix + between)
    if rows:
        rows[-1] = suffix  # no separator after the last edge
    if fmt == "dot":
        vertices = [f"  {u};\n" for u in names]
        return "".join([f"graph wzd_{n} {{\n", *vertices, *rows, "}\n"])
    if fmt == "json":
        head = f'{{"modulus": {n}, "vertices": [{", ".join(names)}], "edges": ['
        return "".join([head, *rows, "]}\n"])
    return "".join(rows or [u + "\n" for u in names])
