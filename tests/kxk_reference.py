"""The k x k twin-quotient route and the explicit k x k join, kept as
references for the token route that ``wzd verify`` and ``wzd join`` run.

Each vertex here is its own row of a k x k bool adjacency: the rows of A and
A + I are bit-packed and sorted once to find the twin classes, the class
counts B are read from the packed leader rows after an exact row check, and
a generalized join is assembled block by block.  ``oracle``'s token route
groups rows of the token table T instead, so the two share no code up to
``_twin_quotient_runs``.
"""

import operator

import numpy as np

from wzdgraph import oracle
from wzdgraph.errors import DomainError
from wzdgraph.graphcore import Graph


def graph_from_edges(labels, index_pairs) -> Graph:
    """Graph on ``labels`` with edges given as index pairs (i, j), i < j."""
    k = len(labels)
    adj = np.zeros((k, k), dtype=bool)
    for i, j in index_pairs:
        i, j = operator.index(i), operator.index(j)
        if not (0 <= i < j < k):
            raise DomainError(f"bad edge ({i}, {j}) for {k} vertices")
        adj[i, j] = adj[j, i] = True
    return Graph(labels=tuple(labels), adjacency=adj)


def assemble_join(host_edges: set[tuple[int, int]], components: list[Graph]) -> Graph:
    """Explicit generalized join: replace host vertex i by ``components[i]``.

    Host edges are index pairs into ``components``.  Vertices of the result
    are numbered 0..N-1 in component order; each component's adjacency fills
    its diagonal block and each host edge a pair of off-diagonal blocks.
    """
    offsets = [0]
    for g in components:
        offsets.append(offsets[-1] + g.vertex_count)
    blocks = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    adj = np.zeros((offsets[-1], offsets[-1]), dtype=bool)
    for block, g in zip(blocks, components):
        adj[block, block] = g.adjacency
    for i, j in host_edges:
        adj[blocks[i], blocks[j]] = adj[blocks[j], blocks[i]] = True
    return Graph(labels=tuple(range(offsets[-1])), adjacency=adj, modulus=None)


def packed_rows(a: np.ndarray) -> np.ndarray:
    """The rows of the k x k bool adjacency A, then those of A + I, packed
    eight to a byte as a 2k x ceil(k / 8) uint8 array: the one copy of A
    that ``twin_classes`` sorts and ``class_counts`` checks."""
    k = a.shape[0]
    rows = np.concatenate([np.packbits(a, axis=1)] * 2)
    i = np.arange(k)
    rows[k + i, i >> 3] |= (0x80 >> (i & 7)).astype(np.uint8)  # A + I: the diagonal bits set
    return rows


def twin_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twin classes of a graph from its ``packed_rows``.

    Vertices with equal rows of A are false twins, and the remaining ones
    with equal rows of A + I are true twins.  Returns ``(order, sizes,
    true_twin)``: the vertices in class order, each class contiguous and led
    by its first vertex, then per class its size and whether it is of true
    twins.  Classes come false twins first, each kind in ascending packed
    row, the order ``oracle._token_twin_classes`` gives on unit weights.
    """
    k = rows.shape[0] // 2
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    labels = np.unique(keys, return_inverse=True)[1]  # one sort for A and A + I
    false_cls = labels[:k]
    false_twin = np.bincount(false_cls)[false_cls] > 1
    key = np.where(false_twin, false_cls, 2 * k + labels[k:])
    order = np.argsort(key, kind="stable")  # stable: each class led by its first vertex
    counts = np.bincount(key)
    present = np.flatnonzero(counts)  # the class keys, ascending as in ``order``
    return order, counts[present], present >= 2 * k  # keys from 2k on: true twins


def class_counts(rows: np.ndarray, twins) -> np.ndarray | None:
    """B[C, D], the neighbours in class D of each vertex of class C, as an
    m x m int32 array in class order, for the ``twins`` of the graph whose
    ``packed_rows`` are ``rows``; None when a member's row of A (false
    twins) or of A + I (true twins) is not its leader's.  That exact check,
    on the packed rows of one class of two or more at a time, makes the
    classes equitable, so B is read from the m leader rows of A alone.
    """
    order, sizes, true_twin = twins
    k = len(order)
    starts = sizes.cumsum() - sizes
    for lo, c, true in zip(starts.tolist(), sizes.tolist(), true_twin.tolist()):
        if c > 1:
            members = order[lo : lo + c] + k * true  # rows of A + I for true twins
            diff = rows.take(members[1:], 0)
            diff ^= rows[members[0]]
            if diff.any():
                return None
    leaders = np.unpackbits(rows.take(order[starts], 0), axis=1, count=k)
    return np.add.reduceat(leaders.take(order, 1), starts, axis=1, dtype=np.int32)


def laplacian_eigenvalues(adj: np.ndarray) -> list[tuple]:
    """Laplacian spectrum of the bool adjacency ``adj``, as ascending
    (eigenvalue, multiplicity) runs, from its twin quotient by the k x k
    route.  Raises OrderCapError above ``oracle.JACOBI_MAX_ORDER`` before
    the classes are counted.
    """
    rows = packed_rows(adj)
    order, sizes, true_twin = twins = twin_classes(rows)
    oracle.check_jacobi_order("the twin reduction", len(sizes) - 1)
    b = class_counts(rows, twins).tolist()
    return oracle._twin_quotient_runs((order, sizes.tolist(), true_twin.tolist()), b)[1]
