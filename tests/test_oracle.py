"""Verification layer: eigensolver, exact polynomials, and the full report."""

import math
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kxk_reference
from kxk_reference import class_counts, expand_runs, graph_from_edges, packed_rows, twin_classes
from wzdgraph import graphcore, oracle
from wzdgraph.errors import ContractViolation, ConvergenceError, DomainError, OrderCapError
from wzdgraph.graphcore import Graph, Kind, build_bruteforce_wzd
from wzdgraph.oracle import (
    CHAR_POLY_MAX_ORDER,
    NUMERIC_MATCH_TOL,
    ExactPolynomial,
    STATUS_DEGENERATE,
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
    char_poly_exact,
    integrality_check,
    laplacian_matrix,
    poly_from_spectrum,
    poly_matches_spectrum,
    symmetric_eigenvalues,
    verify_spectrum,
    _round_robin_rounds,
)
from wzdgraph.spectra import (
    SpectrumMultiset,
    WeightedHostGraph,
    component_spectrum,
    join_spectrum,
    wzd_spectrum_closed_form,
)


def unit_tokens(adj: np.ndarray) -> tuple:
    """An explicit graph in token form: its adjacency, one vertex per token."""
    return adj, np.ones(len(adj), dtype=np.int64)


def token_rows(table: np.ndarray, weights: np.ndarray) -> tuple:
    """``(table, weights)`` as the twin helpers read them: T's bytes and w's ints."""
    return table.tobytes(), weights.tolist()


def spectrum_runs(table: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """The Laplacian spectrum runs that ``oracle.twin_quotient`` returns."""
    return oracle.twin_quotient(table, weights)[3]


def graph_from_label_edges(labels, edges):
    index = {u: i for i, u in enumerate(labels)}
    return graph_from_edges(labels, (sorted((index[u], index[v])) for u, v in edges))


def det_bareiss(rows) -> int:
    """Reference: determinant by fraction-free (Bareiss) elimination over Python integers."""
    m = [list(row) for row in rows]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1] if k else 1


def is_char_poly_of(coeffs, a) -> bool:
    """Reference: whether coeffs (ascending) are det(tI - A).

    Both are monic of degree k, so agreeing at t = 0..k proves them equal.
    """
    rows = np.asarray(a).tolist()
    k = len(rows)
    if len(coeffs) != k + 1 or coeffs[-1] != 1:
        return False
    for t in range(k + 1):
        shifted = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        if det_bareiss(shifted) != sum(c * t**i for i, c in enumerate(coeffs)):
            return False
    return True


def root_multiplicity(coeffs, root: int) -> int:
    """Reference: multiplicity of an integer root, by exact synthetic division."""
    mult = 0
    coeffs = list(coeffs)
    while len(coeffs) > 1:
        quotient = []  # descending, remainder last
        for c in reversed(coeffs):
            quotient.append(quotient[-1] * root + c if quotient else c)
        if quotient.pop() != 0:
            break
        mult += 1
        coeffs = quotient[::-1]
    return mult


def round_robin_rounds_reference(k):
    """Reference: the circle method by rotating a Python list, one round at a time."""
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
        rounds.append((ps, qs))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def test_laplacian_matrix_examples():
    k2 = graph_from_label_edges([1, 2], [(1, 2)])
    assert laplacian_matrix(k2).tolist() == [[1, -1], [-1, 1]]

    path = graph_from_label_edges([1, 2, 3], [(1, 2), (2, 3)])
    assert laplacian_matrix(path).tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert laplacian_matrix(path).dtype == np.int64

    empty3 = graph_from_label_edges([1, 2, 3], [])
    assert laplacian_matrix(empty3).tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_char_poly_rejects_non_integer_matrices():
    for bad in (
        [[0, 1], [1, 0]],
        np.zeros((2, 2)),
        np.zeros((2, 2), dtype=bool),
        np.zeros((2, 2), dtype=np.uint64),
        np.zeros((2, 3), dtype=np.int64),
        np.zeros(3, dtype=np.int64),
    ):
        with pytest.raises(ContractViolation):
            char_poly_exact(bad)


def test_symmetric_eigenvalues_examples():
    assert symmetric_eigenvalues([[1, -1], [-1, 1]]) == pytest.approx([0.0, 2.0])
    assert symmetric_eigenvalues(np.diag([1.0, 2.0, 3.0])) == pytest.approx([1, 2, 3])
    path = graph_from_label_edges([1, 2, 3], [(1, 2), (2, 3)])
    eigs = symmetric_eigenvalues(laplacian_matrix(path))
    assert eigs == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
    assert symmetric_eigenvalues(np.zeros((0, 0))) == []
    assert symmetric_eigenvalues([[4.5]]) == [4.5]


def test_symmetric_eigenvalues_rejects_bad_input():
    with pytest.raises(ContractViolation):
        symmetric_eigenvalues([[0, 1], [2, 0]])
    with pytest.raises(ContractViolation):
        symmetric_eigenvalues(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "m",
    [
        [[np.nan]],
        [[np.inf]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[-np.inf]],
        # symmetric, so only the finiteness test can refuse it before Jacobi
        [[1.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 3.0]],
    ],
)
def test_symmetric_eigenvalues_rejects_non_finite_entries(monkeypatch, m):
    def unreachable(k):
        raise AssertionError("a sweep ran on a non-finite matrix")

    monkeypatch.setattr(oracle, "_cached_jacobi_schedule", unreachable)
    with pytest.raises(ContractViolation, match="non-finite"):
        symmetric_eigenvalues(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
def test_symmetric_eigenvalues_match_lapack(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(k, k)).astype(float)
    a = (a + a.T) / 2.0
    mine = np.array(symmetric_eigenvalues(a))
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(mine - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))
    assert abs(mine.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_symmetric_eigenvalues_with_tied_diagonal_match_lapack(k, distinct, seed):
    # the middle-out start order sorts the diagonal; ties and odd orders
    # must not change the eigenvalues
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(k, k)).astype(float)
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, rng.integers(-5, 6, size=distinct)[rng.integers(0, distinct, size=k)])
    mine = np.array(symmetric_eigenvalues(a))
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(mine - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_round_robin_rounds_match_reference():
    for k in range(2, 41):
        ps, qs = _round_robin_rounds(k)
        rounds = [(p.tolist(), q.tolist()) for p, q in zip(ps, qs)]
        assert rounds == round_robin_rounds_reference(k), k
        for p, q in rounds:
            assert len(set(p) | set(q)) == 2 * len(p), k
        # every pair exactly once per sweep
        pairs = sorted(zip(ps.ravel().tolist(), qs.ravel().tolist()))
        assert pairs == [(p, q) for p in range(k) for q in range(p + 1, k)], k


@pytest.mark.parametrize("k", [2, 7, oracle.JACOBI_CACHED_ORDER + 3])
def test_symmetric_eigenvalues_leaves_its_input_unchanged(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((k, k))
    a = a + a.T
    a[0, 1] += 1e-15  # within the symmetry tolerance, so the mean is taken
    before = a.copy()
    symmetric_eigenvalues(a)
    assert np.array_equal(a, before)


def test_jacobi_schedule_is_built_once_per_order_and_read_only():
    k = 9
    rounds, upper = oracle._cached_jacobi_schedule(k)
    assert oracle._cached_jacobi_schedule(k) is oracle._cached_jacobi_schedule(k)
    ps, qs = _round_robin_rounds(k)
    assert [(p.tolist(), q.tolist()) for p, q, _ in rounds] == list(
        zip(ps.tolist(), qs.tolist())
    )
    assert all(np.array_equal(flat, p * k + q) for p, q, flat in rounds)
    rows, cols = np.triu_indices(k, 1)
    assert np.array_equal(upper, rows * k + cols)
    for arr in (upper, *(x for triple in rounds for x in triple)):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_jacobi_schedule_cache_holds_no_order_above_its_bound():
    bound = oracle.JACOBI_CACHED_ORDER
    oracle._cached_jacobi_schedule.cache_clear()
    for k in (3, bound, bound + 1, 2 * bound):
        symmetric_eigenvalues(np.diag(np.arange(k, dtype=float)))
    assert oracle._cached_jacobi_schedule.cache_info().currsize == 2
    assert oracle._cached_jacobi_schedule.cache_info().maxsize == bound


@pytest.mark.parametrize("n", [240, 420])
def test_jacobi_converges_in_few_sweeps_on_wzd_laplacians(monkeypatch, n):
    # in ascending vertex order these took 12 and 17 sweeps
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 7)
    eigs = symmetric_eigenvalues(laplacian_matrix(build_bruteforce_wzd(n)))
    expected = expand_runs(wzd_spectrum_closed_form(n).items_sorted())
    assert np.max(np.abs(np.array(eigs) - expected)) < 1e-8 * len(expected)


def test_jacobi_sweep_bound_includes_the_last_sweep(monkeypatch):
    # n = 150 converges in its 5th sweep, so a bound of 5 sweeps must be enough
    lap = laplacian_matrix(build_bruteforce_wzd(150))
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 5)
    eigs = symmetric_eigenvalues(lap)
    expected = expand_runs(wzd_spectrum_closed_form(150).items_sorted())
    assert np.max(np.abs(np.array(eigs) - expected)) < 1e-8 * len(expected)
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError, match="in 0 sweeps"):
        symmetric_eigenvalues(lap)


def class_layout(cls) -> tuple:
    """``twin_classes``' layout ``(order, sizes, true_twin)`` of the classes
    of any labels ``cls``, with no class of true twins: ``cls[i]`` labels index
    i, ``order = np.argsort(cls, kind="stable")``, and the classes come in
    ascending label order."""
    sizes = np.unique(cls, return_counts=True)[1]
    return np.argsort(cls, kind="stable"), sizes, np.zeros(len(sizes), dtype=bool)


def class_labels(twins) -> np.ndarray:
    """The class index of each vertex, from ``twin_classes``' layout."""
    order, sizes, _ = twins
    return np.repeat(np.arange(len(sizes)), sizes)[np.argsort(order)]


def reflect_classes(m, cls) -> np.ndarray:
    """Q^T M Q as float64, in class order, for the orthogonal Q built from the
    classes ``cls``: the twin lemma, dense, whose eigenvalues the quotient
    path appends without a reflection.

    ``cls[i]`` labels index i.  Q first permutes the indices into class order,
    ``np.argsort(cls, kind="stable")``: row and column i of the result belong
    to index ``order[i]``, and each class is one contiguous block, led by its
    first index.  Then Q applies one Householder reflection per class of
    c >= 2 indices, which swaps the class's normalized indicator with the
    unit vector of its leader.
    """
    order, sizes, _ = class_layout(cls)
    k = len(order)
    a = np.asarray(m).take(order[:, None] * k + order).astype(np.float64)
    cuts = [0, *np.cumsum(sizes).tolist()]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 2:
            continue
        # v = u - e_lo with u = 1/sqrt(c) on the class; H = I - 2 v v^T / v^T v
        v = np.full(hi - lo, 1.0 / math.sqrt(hi - lo))
        v[0] -= 1.0
        w = v * (2.0 / float(v @ v))
        rows = a[lo:hi]
        rows -= w[:, None] * (v @ rows)
        cols = a[:, lo:hi]
        cols -= (cols @ v)[:, None] * w
    return a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_reflect_classes_keeps_the_spectrum_of_any_grouping(k, labels, seed):
    # random labels group indices that are not twins, so the reflected
    # matrix is full, but still similar to the input
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(k, k)).astype(float)
    a = (a + a.T) / 2.0
    cls = rng.integers(0, labels, size=k) * 7 - 3
    r = reflect_classes(a, cls)
    assert r.dtype == np.float64 and r.shape == (k, k)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(r - r.T)) < 1e-12 * scale
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(np.linalg.eigvalsh(r) - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_reflect_classes_leaves_the_class_leaders_to_rotate():
    # WΓ(Z_18): A_2 (6 false twins) and one class of 5 universal vertices
    g = build_bruteforce_wzd(18)
    twins = twin_classes(packed_rows(g.adjacency))
    order, sizes, true_twin = twins
    assert sizes.tolist() == [6, 5] and true_twin.tolist() == [False, True]
    # the result is in class order, each class opened by its leader, its
    # first vertex; put it back in vertex order
    cls = class_labels(twins)
    reps = order[[0, 6]]
    assert reps.tolist() == [int(np.flatnonzero(cls == c)[0]) for c in (0, 1)]
    back = np.argsort(order)
    r = reflect_classes(laplacian_matrix(g), cls)[np.ix_(back, back)]
    off = r - np.diag(np.diagonal(r))
    off[np.ix_(reps, reps)] = 0.0
    assert np.max(np.abs(off)) < 1e-14
    # the other rows carry the twin eigenvalues: d = 5 in A_2, d + 1 = 11
    others = np.setdiff1d(np.arange(11), reps)
    expected = np.where(cls[others] == 0, 5.0, 11.0)
    assert np.max(np.abs(np.diagonal(r)[others] - expected)) < 1e-14


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_explicit_twin_stage_of_order_4096_peaks_under_4_k_squared_bytes():
    # join's largest explicit graph, one token per vertex: the k^2-byte table
    # is read once into bytes and each key is one row, so the twin stage
    # holds about 2 k^2 bytes.  Twin-free, its k classes are refused before
    # any count; with five planted classes over the twin-free path P_5 they
    # are checked and counted, bit for bit as by the k x k route.
    k = graphcore.MAX_GRAPH_ORDER
    rng = np.random.default_rng(k)
    free = random_adjacency(rng, k)
    of = rng.integers(0, 5, size=k)
    path = path_adjacency(5) | np.diag([True, False, True, False, True])
    planted = path[np.ix_(of, of)]
    np.fill_diagonal(planted, False)
    results = []

    def twin_stage(adj):
        try:
            results.append(spectrum_runs(*unit_tokens(adj)))
        except OrderCapError as exc:
            results.append(str(exc))

    for adj in (free, planted):
        assert traced_peak(lambda: twin_stage(adj)) < 4 * k * k  # 64 MB
    assert results[0] == "the twin reduction leaves Jacobi order 4095, above its limit of 256"
    assert len(oracle._token_twin_classes(*token_rows(*unit_tokens(planted)))[1]) == 5
    assert results[1] == kxk_reference.laplacian_eigenvalues(planted)


@pytest.mark.parametrize("n", [4, 13, 18, 150, 240, 360])
def test_class_counts_are_every_members_neighbours_in_each_class(n):
    a = build_bruteforce_wzd(n).adjacency
    rows = packed_rows(a)
    twins = twin_classes(rows)
    order, sizes, _ = twins
    b = class_counts(rows, twins)
    assert b.dtype == np.int32 and b.shape == (len(sizes), len(sizes))
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    for c, members in enumerate(blocks):
        for v in members.tolist():
            assert [int(a[v, d].sum()) for d in blocks] == b[c].tolist(), (n, v)


@pytest.mark.parametrize("seed", range(12))
def test_class_counts_refuse_classes_that_are_not_of_twins(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    host = np.triu(rng.random((m, m)) < 0.5, 1)
    g, _, _ = planted_twin_graph(rng, host | host.T)
    rows = packed_rows(g.adjacency)
    order, sizes, true_twin = twins = twin_classes(rows)
    assert class_counts(rows, twins) is not None
    # false twins differ in A + I, true twins in A: the other kind is refused
    for c in np.flatnonzero(sizes > 1):
        flipped = true_twin.copy()
        flipped[c] = not flipped[c]
        assert class_counts(rows, (order, sizes, flipped)) is None, c
    # two classes merged into one are twins of neither kind
    if len(sizes) > 1:
        merged = np.concatenate([[sizes[0] + sizes[1]], sizes[2:]])
        for true in (False, True):
            kinds = np.concatenate([[true], true_twin[2:]])
            assert class_counts(rows, (order, merged, kinds)) is None, true


def twin_classes_reference(a: np.ndarray) -> dict[frozenset, bool]:
    """Each twin class, as a set of vertices, to whether it is of true twins,
    by comparing rows of A, then of A + I, as tuples."""
    k = len(a)
    open_rows = [tuple(row) for row in a.tolist()]
    closed_rows = [tuple(row) for row in (a | np.eye(k, dtype=bool)).tolist()]
    groups: dict[tuple, list[int]] = {}
    for i in range(k):
        if open_rows.count(open_rows[i]) > 1:
            groups.setdefault((False, open_rows[i]), []).append(i)
        else:
            groups.setdefault((True, closed_rows[i]), []).append(i)
    return {frozenset(members): true for (true, _), members in groups.items()}


@pytest.mark.parametrize("seed", range(12))
def test_twin_classes_match_a_row_by_row_reference(seed):
    # planted classes over a random host, orders that are and are not
    # multiples of 8, so the diagonal bits of A + I land in every bit position
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    host = np.triu(rng.random((m, m)) < 0.5, 1)
    g, _, _ = planted_twin_graph(rng, host | host.T)
    order, sizes, true_twin = twin_classes(packed_rows(g.adjacency))
    assert sorted(order.tolist()) == list(range(g.vertex_count)) and sizes.sum() == len(order)
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    got = {frozenset(b.tolist()): bool(t) for b, t in zip(blocks, true_twin)}
    assert len(got) == len(sizes) and got == twin_classes_reference(g.adjacency)
    # each class ascends, so it is led by its first vertex, and false twins come first
    assert all((np.diff(b) > 0).all() for b in blocks)
    assert true_twin.tolist() == sorted(true_twin.tolist())


def test_jacobi_converges_in_one_sweep_on_reflected_wzd_laplacians(monkeypatch):
    # Jacobi gets the block of the quotient Laplacian S reflected across
    # sqrt(sizes), of order at most 4 here; raw Laplacians took up to 6 sweeps
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 1)
    for n in range(4, 601):
        closed = wzd_spectrum_closed_form(n)
        if closed.order == 0:
            continue
        runs = spectrum_runs(*unit_tokens(build_bruteforce_wzd(n).adjacency))
        err = np.max(np.abs(np.array(expand_runs(runs)) - expand_runs(closed.items_sorted())))
        assert err <= NUMERIC_MATCH_TOL * closed.order, n


def test_char_poly_examples():
    k2 = graph_from_label_edges([1, 2], [(1, 2)])
    assert char_poly_exact(laplacian_matrix(k2)).coeffs == (0, -2, 1)

    k3 = graph_from_label_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    # x^3 - 6x^2 + 9x, i.e. x(x - 3)^2
    assert char_poly_exact(laplacian_matrix(k3)).coeffs == (0, 9, -6, 1)

    zero2 = np.zeros((2, 2), dtype=np.int64)
    assert char_poly_exact(zero2).coeffs == (0, 0, 1)

    empty = np.zeros((0, 0), dtype=np.int64)
    assert char_poly_exact(empty).coeffs == (1,)


def test_char_poly_order_cap():
    m = laplacian_matrix(build_bruteforce_wzd(90))
    assert m.shape == (CHAR_POLY_MAX_ORDER + 1,) * 2
    with pytest.raises(OrderCapError):
        char_poly_exact(m)


def test_char_poly_refuses_orders_past_exact_limit():
    # refused before any arithmetic, however large the order
    for k in (CHAR_POLY_MAX_ORDER + 1, 2049):
        with pytest.raises(OrderCapError):
            char_poly_exact(np.zeros((k, k), dtype=np.int8))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.sampled_from([np.int64, np.int32, np.int8]),
)
def test_char_poly_matches_bareiss_reference(k, seed, symmetric, dtype):
    rng = np.random.default_rng(seed)
    a = rng.integers(-6, 7, size=(k, k))
    if symmetric:
        a = a + a.T
    a = a.astype(dtype)
    assert is_char_poly_of(char_poly_exact(a).coeffs, a)


@pytest.mark.parametrize("k", [1, 2, 3, 15, 20, 24, 30, 35, 40])
def test_char_poly_non_symmetric_orders(k):
    a = np.random.default_rng(k).integers(-50, 51, size=(k, k))
    assert is_char_poly_of(char_poly_exact(a).coeffs, a)


def test_char_poly_entries_beyond_float_precision():
    # entries that float64 cannot hold exactly
    a = np.random.default_rng(5).integers(-10**12, 10**12, size=(12, 12))
    a[0, 1] = 2**62 + 1
    a[3, 3] = -(2**62) - 3
    assert is_char_poly_of(char_poly_exact(a).coeffs, a)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_char_poly_small_integer_dtypes_do_not_wrap(dtype):
    info = np.iinfo(dtype)
    a = np.random.default_rng(2).integers(info.min, info.max + 1, size=(17, 17), dtype=dtype)
    a[0, 0], a[1, 1] = info.min, info.max
    assert is_char_poly_of(char_poly_exact(a).coeffs, a)


def test_char_poly_handles_large_graph():
    g = build_bruteforce_wzd(60)  # order 43
    p = char_poly_exact(laplacian_matrix(g))
    s = wzd_spectrum_closed_form(60)
    assert p.degree == s.order == 43
    assert poly_matches_spectrum(p, s)


def test_poly_matches_spectrum_examples():
    p = ExactPolynomial(coeffs=(0, -2, 1))
    assert poly_matches_spectrum(p, SpectrumMultiset.exact([(0, 1), (2, 1)]))
    assert not poly_matches_spectrum(p, SpectrumMultiset.exact([(0, 2)]))

    g18 = build_bruteforce_wzd(18)
    assert poly_matches_spectrum(
        char_poly_exact(laplacian_matrix(g18)), wzd_spectrum_closed_form(18)
    )


def test_poly_matches_spectrum_contract_errors():
    p = ExactPolynomial(coeffs=(0, -2, 1))
    with pytest.raises(ContractViolation):
        poly_matches_spectrum(p, SpectrumMultiset.floating([(0.0, 1), (2.0, 1)]))
    with pytest.raises(ContractViolation):
        poly_matches_spectrum(p, SpectrumMultiset.exact([(0, 1), (2, 1), (3, 1)]))


def test_exact_polynomial_must_be_monic():
    with pytest.raises(ContractViolation):
        ExactPolynomial(coeffs=(1, 2))
    with pytest.raises(ContractViolation):
        ExactPolynomial(coeffs=())


def test_exact_polynomial_is_a_frozen_record():
    p = ExactPolynomial((0, -2, 1))
    same = ExactPolynomial(coeffs=(0, -2, 1))
    assert p == same and hash(p) == hash(same) and p != ExactPolynomial((2, -3, 1))
    assert repr(p) == "ExactPolynomial(coeffs=(0, -2, 1))"
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    with pytest.raises(AttributeError):
        del p.coeffs
    assert pickle.loads(pickle.dumps(p)) == p


def test_root_multiplicity_and_evaluation():
    p = char_poly_exact(laplacian_matrix(build_bruteforce_wzd(18)))
    assert root_multiplicity(p.coeffs, 0) == 1
    assert root_multiplicity(p.coeffs, 5) == 5
    assert root_multiplicity(p.coeffs, 11) == 5
    assert root_multiplicity(p.coeffs, 7) == 0
    # constant term vanishes for the Laplacian of any nonempty graph
    assert p.coeffs[0] == 0


def test_poly_from_spectrum_expansion():
    s = SpectrumMultiset.exact([(0, 1), (3, 2)])
    assert poly_from_spectrum(s).coeffs == (0, 9, -6, 1)


@pytest.mark.parametrize("n", [12, 30, 36, 60])
def test_charpoly_roots_carry_closed_form_multiplicities(n):
    p = char_poly_exact(laplacian_matrix(build_bruteforce_wzd(n)))
    for eig, mult in wzd_spectrum_closed_form(n).items_sorted():
        assert root_multiplicity(p.coeffs, eig) == mult


def planted_twin_graph(rng, host):
    """Graph whose vertices come in classes of 1..5, one per vertex of the
    bool matrix ``host``: each class is complete (true twins) or empty
    (false twins), and classes adjacent in ``host`` are joined."""
    sizes = rng.integers(1, 6, size=len(host))
    kinds = [Kind.COMPLETE if rng.random() < 0.5 else Kind.EMPTY for _ in sizes]
    cls = np.repeat(np.arange(len(host)), sizes)
    a = host[np.ix_(cls, cls)]
    same = cls[:, None] == cls[None, :]
    complete = np.array([kind is Kind.COMPLETE for kind in kinds])[cls]
    a[same] = (complete[:, None] & same)[same]
    np.fill_diagonal(a, False)
    return Graph(labels=tuple(range(len(cls))), adjacency=a), sizes, kinds


def twin_certificate(g: Graph, spectrum: SpectrumMultiset) -> bool:
    """The exact certificate on any graph ``g``, by its explicit adjacency:
    its twin classes and their counts, then ``_quotient_certificate``, which
    raises ContractViolation for a floating ``spectrum``."""
    rows = packed_rows(g.adjacency)
    order, sizes, true_twin = twins = twin_classes(rows)
    b = class_counts(rows, twins)
    return b is not None and oracle._quotient_certificate(
        spectrum, (order, sizes.tolist(), true_twin.tolist()), b.tolist()
    )


@pytest.mark.parametrize("seed", range(6))
def test_twin_certificate_on_planted_twins(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    # over a complete host the join spectrum theorem gives the exact spectrum
    g, sizes, kinds = planted_twin_graph(rng, ~np.eye(m, dtype=bool))
    host = WeightedHostGraph(
        labels=tuple(range(m)),
        weights=tuple(sizes.tolist()),
        edges=frozenset((i, j) for i in range(m) for j in range(i + 1, m)),
    )
    exact = join_spectrum(host, [component_spectrum(int(c), kd) for c, kd in zip(sizes, kinds)])
    assert twin_certificate(g, exact)
    # over a path the quotient eigenvalues are not all integers, so the
    # rounded numeric spectrum is wrong, though its twin part is right
    path = np.eye(m + 1, k=1, dtype=bool) | np.eye(m + 1, k=-1, dtype=bool)
    g, _, _ = planted_twin_graph(rng, path)
    eigs = np.linalg.eigvalsh(laplacian_matrix(g).astype(float))
    rounded = np.rint(eigs)
    assert np.max(np.abs(eigs - rounded)) > 1e-6
    wrong = SpectrumMultiset.exact((int(e), 1) for e in rounded)
    assert not twin_certificate(g, wrong)


@pytest.mark.parametrize("change", ["remove", "add"])
def test_twin_certificate_rejects_one_edge_changed(change):
    g = build_bruteforce_wzd(240)
    closed = wzd_spectrum_closed_form(240)
    assert twin_certificate(g, closed)
    a = g.adjacency.copy()
    present = change == "remove"
    i, j = np.argwhere(np.triu(a == present, 1))[len(a) // 2]
    a[i, j] = a[j, i] = not present
    assert not twin_certificate(Graph(labels=g.labels, adjacency=a), closed)


def test_twin_certificate_rejects_a_missing_twin_eigenvalue():
    # the empty class A_3 of Z_240 holds phi(80) = 32 false twins of degree
    # 175 - 32, so 143 has multiplicity 31; move one of them to 175
    g = build_bruteforce_wzd(240)
    closed = wzd_spectrum_closed_form(240)
    assert closed.entries[143] == 31
    wrong = dict(closed.entries)
    wrong[143] -= 1
    wrong[175] += 1
    assert not twin_certificate(g, SpectrumMultiset.exact(wrong.items()))


@pytest.mark.parametrize("n", [960, 1440, 2310])
def test_twin_certificate_proves_large_closed_forms(n):
    assert twin_certificate(build_bruteforce_wzd(n), wzd_spectrum_closed_form(n))


@pytest.mark.parametrize("n", [30, 360])
def test_twin_certificate_reads_a_fortran_ordered_adjacency(n):
    g = build_bruteforce_wzd(n)
    fortran = Graph(labels=g.labels, adjacency=np.asfortranarray(g.adjacency))
    assert fortran.adjacency.flags.c_contiguous
    assert twin_certificate(fortran, wzd_spectrum_closed_form(n))


def test_twin_certificate_counts_neighbours_from_the_bool_rows():
    # order 4093: A @ P on the int64 cast of A took 8 k^2 bytes
    n = 8186
    g = build_bruteforce_wzd(n)
    closed = wzd_spectrum_closed_form(n)
    k = g.vertex_count
    assert k == 4093
    proved = []
    assert traced_peak(lambda: proved.append(twin_certificate(g, closed))) < k * k
    assert proved == [True]


def test_twin_certificate_rejects_floating_spectra():
    with pytest.raises(ContractViolation):
        twin_certificate(build_bruteforce_wzd(18), SpectrumMultiset.floating([(0.0, 11)]))


def test_integrality_check_examples():
    assert integrality_check([0.0, 4.9999999, 11.0000001], 1e-6) is True
    assert integrality_check([0.5], 1e-6) is False
    assert integrality_check([-0.5], 1e-6) is False
    assert integrality_check([3.0, -2.0000002], 1e-6) is True
    assert integrality_check([], 1e-6) is True


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=30),
    st.lists(st.floats(-2e-6, 2e-6), max_size=30),
    st.sampled_from([1e-6, 1e-8, 0.5]),
)
def test_numeric_checks_agree_with_their_loop_references(ints, offsets, tol):
    # halves included: the distance to the nearest integer does not depend
    # on which way a half rounds
    numeric = [i + d for i, d in zip(ints, offsets)]
    expected = ints[: len(numeric)]
    bound = NUMERIC_MATCH_TOL * max(1, len(expected))
    assert oracle.eigenvalues_match(
        [(a, 1) for a in sorted(numeric)], [(b, 1) for b in sorted(expected)]
    ) is all(abs(a - b) <= bound for a, b in zip(sorted(numeric), sorted(expected)))
    eigs = numeric + [i + 0.5 for i in ints[:2]]
    nearest = [math.floor(e + 0.5) if e >= 0 else math.ceil(e - 0.5) for e in eigs]
    assert integrality_check(eigs, tol) is all(abs(e - r) <= tol for e, r in zip(eigs, nearest))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eigenvalues_match_walks_runs_as_the_elementwise_compare(data):
    # expected: ascending ints, zero multiplicities included; numeric: each
    # expected eigenvalue moved by 0, half the bound, the bound, or just or
    # well past it, one dropped, added or replaced at times, so that a run
    # may span places of two expected values, and grouped into runs split
    # at random, with zero-multiplicity runs among them
    values = sorted(set(data.draw(st.lists(st.integers(-20, 20), max_size=8))))
    expected = [(v, data.draw(st.integers(0, 4))) for v in values]
    flat = [v for v, mult in expected for _ in range(mult)]
    tol = NUMERIC_MATCH_TOL * max(1, len(flat))
    past = math.nextafter(tol, 1.0)
    offsets = st.sampled_from([0.0, tol / 2, tol, -tol, past, -past, 3 * tol])
    numeric = [float(v) + data.draw(offsets) for v in flat]
    change = data.draw(st.sampled_from(["none", "none", "drop", "add", "replace"]))
    if change in ("drop", "replace") and numeric:
        numeric.pop(data.draw(st.integers(0, len(numeric) - 1)))
    if change in ("add", "replace"):
        numeric.append(float(data.draw(st.integers(-20, 20))))
    numeric.sort()
    runs = []
    for a in numeric:
        if runs and runs[-1][0] == a and data.draw(st.booleans()):
            runs[-1] = (a, runs[-1][1] + 1)
        else:
            runs += [(a, 0)] * data.draw(st.integers(0, 1)) + [(a, 1)]
    elementwise = len(numeric) == len(flat) and all(
        abs(a - b) <= tol for a, b in zip(numeric, flat)
    )
    assert oracle.eigenvalues_match(runs, expected) is elementwise


def test_verify_spectrum_expands_no_spectrum(monkeypatch):
    # after the scan, every check reads the m x m quotient and (value,
    # multiplicity) runs: no list or array as long as the order is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a spectrum was expanded")

    assert not hasattr(SpectrumMultiset, "expand")
    monkeypatch.setattr(np, "repeat", unreachable)
    assert not hasattr(oracle, "_quotient_eigenvalues")
    for n in (18, 49, 150, 240, 5040, 8186):
        assert verify_spectrum(n).status == STATUS_PASS, n
        assert verify_spectrum(n, order_cap=8).status == STATUS_PASS, n


def test_floating_runs_merge_as_the_expanded_list_did():
    # join reads an edge-list component's spectrum as floating(runs): the
    # entries must be, bit for bit, those of floating on the expanded list.
    # WΓ(Z_n) puts quotient eigenvalues within the merge tolerance of the
    # twins' ints; planted graphs give irrational ones among them
    rng = np.random.default_rng(2026)
    tokens = [graphcore.scan_wzd_tokens(n)[2:] for n in (18, 30, 240, 1001, 5040)]
    for _ in range(60):
        host = random_adjacency(rng, int(rng.integers(1, 9)))
        tokens.append(unit_tokens(planted_twin_graph(rng, host)[0].adjacency))
    for case, (table, weights) in enumerate(tokens):
        runs = spectrum_runs(table, weights)
        by_runs = SpectrumMultiset.floating(runs).items_sorted()
        by_list = SpectrumMultiset.floating((e, 1) for e in expand_runs(runs)).items_sorted()
        assert repr(by_runs) == repr(by_list), case


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
def test_integrality_check_refuses_a_tolerance_outside_zero_to_infinity(tol):
    # a NaN tolerance passed every eigenvalue: nan <= 0 and |e - r| > nan are both False
    with pytest.raises(DomainError, match="^tolerance must be finite and positive"):
        integrality_check([0.4, 1.5], tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrality_check_refuses_non_finite_eigenvalues(bad):
    with pytest.raises(DomainError, match="not finite"):
        integrality_check([1.0, bad], 1e-6)


def test_verify_spectrum_pass_cases():
    rep18 = verify_spectrum(18)
    assert rep18.status == STATUS_PASS
    assert rep18.spectrum.entries == {0: 1, 5: 5, 11: 5}
    assert all(rep18.checks.values())
    assert set(rep18.checks) == {
        "construction_equal",
        "trace_edges",
        "charpoly_match",
        "numeric_match",
        "integral",
    }

    rep36 = verify_spectrum(36)
    assert rep36.status == STATUS_PASS
    assert rep36.spectrum.entries == {0: 1, 23: 22}


def test_verify_spectrum_degenerate_prime(monkeypatch):
    orders = jacobi_orders(monkeypatch)
    for p in (2, 3, 7, 997):
        del orders[:]
        rep = verify_spectrum(p)
        assert rep.status == STATUS_DEGENERATE and all(rep.checks.values()), p
        assert rep.spectrum.order == 0
        # the empty graph has no vertex: the spectral checks hold vacuously
        # and Jacobi does not run
        assert orders == [], p


def test_verify_spectrum_order_zero_with_vertices_fails(monkeypatch):
    # a closed form of order 0 over a scan that finds vertices runs every
    # stage, and the spectral checks see the mismatch
    real = oracle.wzd_spectrum_closed_form
    monkeypatch.setattr(oracle, "wzd_spectrum_closed_form", lambda n: real(97))
    for n in (18, 49, 150):
        rep = verify_spectrum(n)
        assert rep.status == STATUS_FAIL and rep.spectrum.order == 0, n
        assert rep.checks["construction_equal"] is True, n
        assert rep.checks["trace_edges"] is False, n
        assert rep.checks["charpoly_match"] is False, n
        assert rep.checks["numeric_match"] is False and rep.checks["integral"] is False, n


def test_verify_spectrum_rejects_tiny_n():
    with pytest.raises(DomainError):
        verify_spectrum(1)


def split_pair(scan, x: int, y: int, joined: bool) -> tuple:
    """``scan`` with vertices x and y moved to two new tokens of weight 1, after
    the others, each with its old token's row of T and the two joined iff
    ``joined``: the scan of the graph with the one pair x, y changed.  The
    old tokens of x and y must keep a vertex."""
    verts, least, table, weights = scan
    least = least.copy()
    ix = [verts.index(x), verts.index(y)]
    old = np.searchsorted(np.unique(least), least[ix])
    m = len(weights)
    rows = np.concatenate([np.arange(m), old])
    table = table[np.ix_(rows, rows)]
    table[m, m + 1] = table[m + 1, m] = joined
    weights = np.concatenate([weights, [1, 1]])
    np.subtract.at(weights, old, 1)
    assert (weights > 0).all()
    least[ix] = least.max() + np.array([1, 2])
    return verts, least, table, weights


def expanded_adjacency(scan) -> np.ndarray:
    """The k x k adjacency a token scan describes, for checking the planted scans."""
    _, least, table, _ = scan
    tok = np.unique(least, return_inverse=True)[1]
    adj = table[np.ix_(tok, tok)]
    np.fill_diagonal(adj, False)
    return adj


@pytest.mark.parametrize("change", ["remove", "add"])
def test_verify_spectrum_numeric_check_sees_one_edge_changed(monkeypatch, change):
    # Z_240: 2 and 3 lie in two classes, so they are joined; 3 and 9 lie in
    # the empty class A_3, so they are not.  The planted scan differs from
    # the real one in that pair alone.
    x, y = (2, 3) if change == "remove" else (3, 9)
    real = graphcore.scan_wzd_tokens(240)
    planted = split_pair(real, x, y, joined=change == "add")
    diff = expanded_adjacency(real) != expanded_adjacency(planted)
    i, j = real[0].index(x), real[0].index(y)
    assert np.flatnonzero(diff).tolist() == sorted([i * len(diff) + j, j * len(diff) + i])

    monkeypatch.setattr(oracle, "scan_wzd_tokens", lambda n: planted)
    rep = verify_spectrum(240)
    assert rep.checks["numeric_match"] is False
    assert rep.status == STATUS_FAIL


def jacobi_orders(monkeypatch) -> list[int]:
    """The order of every matrix ``verify_spectrum`` hands to Jacobi."""
    orders = []
    real = oracle.symmetric_eigenvalues

    def spy(m, *args, **kwargs):
        orders.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(oracle, "symmetric_eigenvalues", spy)
    return orders


def test_verify_spectrum_runs_jacobi_on_the_leader_block_only(monkeypatch):
    # the m class leaders less the first, which the constant vector takes
    orders = jacobi_orders(monkeypatch)
    blocks = total = 0
    for n in range(4, 201):
        del orders[:]
        assert verify_spectrum(n).status != STATUS_FAIL, n
        leaders = len(twin_classes(packed_rows(build_bruteforce_wzd(n).adjacency))[1])
        # a prime's graph has no vertex and no class, and one class leaves
        # an empty block: Jacobi does not run
        assert orders == ([leaders - 1] if leaders > 1 else []), n
        blocks += leaders
        total += wzd_spectrum_closed_form(n).order
    assert blocks * 10 < total


@pytest.mark.parametrize("n", [18, 150, 240])
def test_deflation_zeroes_the_first_leaders_row_and_column(monkeypatch, n):
    a = build_bruteforce_wzd(n).adjacency
    rows = packed_rows(a)
    twins = twin_classes(rows)
    sizes = twins[1]
    m = len(sizes)
    b = class_counts(rows, twins)
    # S = D - sqrt(B o B^T) is symmetric and similar to the quotient D - B
    q = np.diag(b.sum(axis=1)) - b
    s = np.diag(b.sum(axis=1)) - np.sqrt(b * b.T)
    assert np.array_equal(s, s.T)
    assert np.allclose(np.sort(np.linalg.eigvals(q).real), np.linalg.eigvalsh(s), atol=1e-9)
    # the reflection that takes sqrt(sizes) to the first class, dense
    v = np.sqrt(sizes / sizes.sum()) - np.eye(m)[0]
    h = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
    hsh = h @ s @ h
    scale = float(np.abs(s).max())
    blocks = []
    real = oracle.symmetric_eigenvalues

    def spy(block):
        blocks.append(np.array(block))
        return real(block)

    monkeypatch.setattr(oracle, "symmetric_eigenvalues", spy)
    eigs = expand_runs(spectrum_runs(*unit_tokens(a)))
    # the first class's row and column vanish, and Jacobi gets the rest
    assert np.abs(hsh[0]).max() < 1e-12 * scale and np.abs(hsh[:, 0]).max() < 1e-12 * scale
    assert len(blocks) == 1 and np.abs(blocks[0] - hsh[1:, 1:]).max() < 1e-12 * scale
    # WΓ(Z_n) is connected, so 0 is a simple eigenvalue.  The block keeps the
    # m - 1 others of the quotient, and the twins give d or d + 1 >= 1, so
    # the eigenvalue that gives 0 is the first class's diagonal entry.
    assert min(real(blocks[0])) > 0.5
    assert abs(eigs[0]) < 1e-12 and eigs[1] > 0.5
    closed = expand_runs(wzd_spectrum_closed_form(n).items_sorted())
    assert np.max(np.abs(np.array(eigs) - closed)) <= NUMERIC_MATCH_TOL * len(closed)


def float_bits(xs) -> list[str]:
    """Each float's exact bits, -0.0 apart from 0.0."""
    return [x.hex() for x in xs]


def test_quotient_eigenvalues_equal_the_numpy_reference_on_every_verify_quotient():
    # B's entries are ints, so S built in Python floats has numpy's bits
    # while a row's partial sums stay below 2^53: same S, same reflection,
    # same Jacobi call, so the same eigenvalues bit for bit
    classes = set()
    for n in range(4, 3001):
        verts, _, table, weights = graphcore.scan_wzd_tokens(n)
        if not verts:
            continue
        rows = token_rows(table, weights)
        twins = oracle._token_twin_classes(*rows)
        b, sizes = oracle._token_class_counts(*rows, twins), twins[1]
        got = oracle.quotient_eigenvalues(b, sizes)
        assert float_bits(got) == float_bits(kxk_reference.quotient_eigenvalues(b, sizes)), n
        classes.add(len(sizes))
    assert classes == {1, 2, 3, 4, 5, 6}  # 6 classes at n = 2310 and 2730


def test_quotient_eigenvalues_equal_the_numpy_reference_on_random_hosts():
    # a join's host: B[i, j] = w_j on host edges, weights up to 10^10 and
    # rows of up to 64 entries, which numpy sums pairwise
    rng = random.Random(30)
    for trial in range(120):
        k = rng.choice([2, 3, 4, 5, 8, 9, 16, 33, 64])
        w = [rng.randint(1, rng.choice([6, 10**6, 10**10])) for _ in range(k)]
        density = rng.random()
        b = [[0] * k for _ in range(k)]
        for i, j in combinations(range(k), 2):
            if rng.random() < density:
                b[i][j], b[j][i] = w[j], w[i]
        got = oracle.quotient_eigenvalues(b, w)
        assert float_bits(got) == float_bits(kxk_reference.quotient_eigenvalues(b, w)), trial


@pytest.mark.parametrize("n", [49, 121])
def test_verify_spectrum_one_twin_class_runs_no_jacobi(monkeypatch, n):
    # WΓ(Z_(p^2)) is complete on p - 1 vertices: one class of true twins,
    # whose quotient is the 1 x 1 zero, an exact 0.0 with no block left
    adj = build_bruteforce_wzd(n).adjacency
    assert len(twin_classes(packed_rows(adj))[1]) == 1
    orders = jacobi_orders(monkeypatch)
    assert verify_spectrum(n).status == STATUS_PASS
    k = len(adj)
    runs = spectrum_runs(*unit_tokens(adj))
    assert runs == [(0.0, 1), (k, k - 1)] and repr(runs[0][0]) == "0.0"
    assert orders == []


def test_verify_spectrum_solves_the_quotient_once(monkeypatch):
    # one twin_quotient call per n finds, counts and solves the quotient, for
    # the certificate and the numeric path, with Jacobi's order checked once,
    # before the count; a prime has none to solve
    calls = []
    names = ("twin_quotient", "_token_twin_classes", "check_jacobi_order",
             "_token_class_counts", "quotient_eigenvalues")
    for name in names:
        real = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    for n in (18, 97, 240, 5040, 8186):
        del calls[:]
        assert verify_spectrum(n).status != STATUS_FAIL, n
        assert calls == ([] if n == 97 else list(names)), n


def test_verify_spectrum_wrong_grouping_fails_both_spectrum_checks(monkeypatch):
    # classes mixing tokens that are not twins fail the exact key check, so
    # there is no quotient: no Jacobi, no certificate and no traceback; each n
    # has an empty class (in a complete graph every grouping is one of twins)
    def wrong(rows, w):
        cls = np.arange(len(w)) % 3
        sizes = np.bincount(cls, w).astype(np.int64)
        return cls.tolist(), sizes, np.zeros(len(sizes), dtype=bool)

    def unreachable(*args):
        raise AssertionError("the certificate ran on a wrong grouping")

    orders = jacobi_orders(monkeypatch)
    monkeypatch.setattr(oracle, "_token_twin_classes", wrong)
    monkeypatch.setattr(oracle, "_quotient_certificate", unreachable)
    for n in (18, 150, 240):
        rep = verify_spectrum(n)
        assert rep.status == STATUS_FAIL, n
        assert rep.checks["construction_equal"] and rep.checks["trace_edges"], n
        assert rep.checks["charpoly_match"] is False and rep.checks["numeric_match"] is False, n
        assert rep.checks["integral"] is False, n
    # with the certificate skipped, the numeric checks still fail
    rep = verify_spectrum(18, order_cap=1)
    assert rep.status == STATUS_FAIL and rep.checks["charpoly_match"] is True
    assert rep.checks["numeric_match"] is False
    assert orders == []


@pytest.mark.parametrize("n", [18, 150])
def test_verify_spectrum_deflated_path_sees_a_perturbed_laplacian(monkeypatch, n):
    # the deflated quotient Laplacian that Jacobi gets, shifted by a multiple
    # of I just past the tolerance: the twin eigenvalues stay exact
    order = wzd_spectrum_closed_form(n).order
    shift = 2 * NUMERIC_MATCH_TOL * order
    orders = jacobi_orders(monkeypatch)
    spy = oracle.symmetric_eigenvalues
    monkeypatch.setattr(oracle, "symmetric_eigenvalues", lambda m: spy(m + shift * np.eye(len(m))))
    rep = verify_spectrum(n)
    assert rep.checks["numeric_match"] is False and rep.status == STATUS_FAIL
    assert rep.checks["charpoly_match"] is True
    assert orders and 0 < orders[0] < order


def test_verify_spectrum_sees_a_planted_wrong_least_annihilator(monkeypatch):
    # vertex 2 of Z_18 has least annihilator 9; planting 6 adds the witness
    # 6 * 9 = 0 to 2 ~ 4, an edge inside the empty class A_2
    real = graphcore._least_annihilators

    def planted(n, verts, divs):
        least = real(n, verts, divs)
        least[verts.index(2)] = 6
        return least

    monkeypatch.setattr(graphcore, "_least_annihilators", planted)
    rep = verify_spectrum(18)
    assert rep.checks["construction_equal"] is False
    assert rep.status == STATUS_FAIL


def planted_construction(n: int, scan) -> VerificationReport:
    """``verify_spectrum(n)`` on the token scan ``scan`` in place of the real one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "scan_wzd_tokens", lambda n: scan)
        return verify_spectrum(n)


def scan_with(name: str, planted, n: int) -> tuple:
    """``scan_wzd_tokens(n)`` with ``graphcore``'s ``name`` replaced by ``planted``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphcore, name, planted)
        return graphcore.scan_wzd_tokens(n)


@pytest.mark.parametrize("n", [18, 30, 240])
def test_construction_check_sees_every_flipped_entry_of_the_table(n):
    # every entry of T is read by some pair of vertices, except the diagonal
    # of a token of weight 1: its one vertex has no partner in the token
    real = graphcore.scan_wzd_tokens(n)
    verts, least, table, weights = real
    clean = verify_spectrum(n)
    assert clean.status == STATUS_PASS
    m = len(weights)
    assert (weights == 1).any() and (weights > 1).any(), n  # n even: the token 2 holds n/2 alone
    for t in range(m):
        for s in range(m):
            flipped = table.copy()
            flipped[t, s] = not flipped[t, s]
            rep = planted_construction(n, (verts, least, flipped, weights))
            if t == s and weights[t] == 1:
                assert rep == clean, (n, t)
            else:
                assert rep.checks["construction_equal"] is False, (n, t, s)
                assert rep.status == STATUS_FAIL, (n, t, s)


@pytest.mark.parametrize("n", [18, 30, 36])
def test_construction_check_sees_a_vertex_moved_to_another_token(n):
    # planted in the scan's annihilators, so the weights and T follow the move
    real = graphcore._least_annihilators
    verts, divs = graphcore.zero_divisors(n), graphcore._divisors(n)
    tokens = np.unique(real(n, verts, divs)).tolist()
    for v in range(len(verts)):
        for r in tokens:
            least = real(n, verts, divs)
            if least[v] == r:
                continue
            least[v] = r
            scan = scan_with("_least_annihilators", lambda n, vs, ds, least=least: least, n)
            assert scan[1].tolist() == least.tolist()
            rep = planted_construction(n, scan)
            assert rep.checks["construction_equal"] is False, (n, verts[v], r)
            assert rep.status == STATUS_FAIL, (n, verts[v], r)
    # two vertices that trade tokens keep every weight and T
    verts, least, table, weights = graphcore.scan_wzd_tokens(n)
    for u, v in combinations(range(len(verts)), 2):
        if least[u] != least[v]:
            traded = least.copy()
            traded[[u, v]] = least[[v, u]]
            rep = planted_construction(n, (verts, traded, table, weights))
            assert rep.checks["construction_equal"] is False, (n, verts[u], verts[v])


@pytest.mark.parametrize("n", [18, 30, 36])
def test_construction_check_sees_a_dropped_vertex(n):
    verts = graphcore.zero_divisors(n)
    for v in verts:
        kept = [x for x in verts if x != v]
        scan = scan_with("zero_divisors", lambda n, divs, kept=kept: kept, n)
        assert scan[0] == kept
        rep = planted_construction(n, scan)
        assert rep.checks["construction_equal"] is False, (n, v)
        assert rep.status == STATUS_FAIL, (n, v)
    # a vertex that is a unit in place of a zero-divisor, its token kept
    _, least, table, weights = graphcore.scan_wzd_tokens(n)
    for i in range(len(verts)):
        unit = next(u for u in range(verts[i] + 1, 2 * n) if math.gcd(u, n) == 1)
        swapped = [*verts[:i], unit, *verts[i + 1 :]]
        rep = planted_construction(n, (swapped, least, table, weights))
        assert rep.checks["construction_equal"] is False, (n, verts[i])


def test_construction_check_sees_weights_that_do_not_count_the_tokens():
    # the trace and the twin counts read the weights, so they are checked too
    verts, least, table, weights = graphcore.scan_wzd_tokens(240)
    for t in range(len(weights)):
        wrong = weights.copy()
        wrong[t] += 1
        rep = planted_construction(240, (verts, least, table, wrong))
        assert rep.checks["construction_equal"] is False and rep.status == STATUS_FAIL, t


def kxk_quotient(adj: np.ndarray) -> tuple:
    """Each vertex's twin class, then per class its size, kind and row of B,
    by the k x k route: ``packed_rows``, ``twin_classes``, ``class_counts``."""
    rows = packed_rows(adj)
    twins = twin_classes(rows)
    return class_labels(twins), twins[1], twins[2], class_counts(rows, twins)


def token_quotient(least, table, weights) -> tuple:
    """``kxk_quotient``'s four results from a token scan, as ``verify_spectrum`` reads them."""
    rows = token_rows(table, weights)
    cls, sizes, true_twin = twins = oracle._token_twin_classes(*rows)
    b = oracle._token_class_counts(*rows, twins)
    cls = np.array(cls)[np.unique(least, return_inverse=True)[1]]  # each vertex's class
    b = None if b is None else np.array(b)
    return cls, np.array(sizes), np.array(true_twin, dtype=bool), b


def assert_same_quotient(kxk, tokens, case) -> None:
    """The same multiset of (size, kind), the same classes as sets of vertices
    with the same sizes and kinds, and the same B, the classes matched by
    their vertices."""
    cls, sizes, kinds, b = kxk
    t_cls, t_sizes, t_kinds, t_b = tokens
    assert sorted(zip(sizes.tolist(), kinds.tolist())) == sorted(
        zip(t_sizes.tolist(), t_kinds.tolist())
    ), case
    perm = t_cls[np.unique(cls, return_index=True)[1]]  # the token class of each class's first vertex
    assert sorted(perm.tolist()) == list(range(len(t_sizes))), case
    assert np.array_equal(t_cls, perm[cls]), case
    assert np.array_equal(t_sizes[perm], sizes) and np.array_equal(t_kinds[perm], kinds), case
    assert b is not None and np.array_equal(t_b[np.ix_(perm, perm)], b), case


def test_token_route_agrees_with_the_kxk_route():
    # verify's token route against the one it replaced: both builders and
    # graphs_equal, then the twin quotient of the brute-force adjacency
    for n in [*range(2, 1501), 5040, 8186, 4091**2]:
        brute = graphcore.build_bruteforce_wzd(n)
        assert graphcore.graphs_equal(brute, graphcore.build_structural_wzd(n)), n
        scan = graphcore.scan_wzd_tokens(n)
        verts, least, table, weights = scan
        assert graphcore.scan_matches_classes(n, scan, graphcore.divisor_classes(n), table.tolist()), n
        assert int(weights @ table @ weights - weights @ table.diagonal()) == 2 * brute.edge_count
        if verts:
            assert_same_quotient(kxk_quotient(brute.adjacency), token_quotient(*scan[1:]), n)


def random_token_table(rng) -> tuple:
    """Random token ``(least, table, weights)``: weights 1..3, T symmetric
    with a random diagonal, its off-diagonal rows copied from a small host so
    that many tokens share a key."""
    m = int(rng.integers(1, 13))
    h = int(rng.integers(1, 5))
    host = np.triu(rng.random((h, h)) < 0.5, 1)
    host |= host.T | np.diag(rng.random(h) < 0.5)
    of = rng.integers(0, h, size=m)
    table = host[np.ix_(of, of)]
    table[np.diag_indices(m)] = rng.random(m) < 0.5
    weights = rng.integers(1, 4, size=m)
    return np.repeat(np.arange(m), weights), table, weights


@pytest.mark.parametrize("seed", range(200))
def test_token_twin_classes_match_the_kxk_classes_of_random_tables(seed):
    # keys shared across tokens, of both kinds, and diagonals of both values
    # on tokens of weight 1 and above
    least, table, weights = random_token_table(np.random.default_rng(seed))
    assert_same_quotient(
        kxk_quotient(expanded_adjacency((None, least, table, None))),
        token_quotient(least, table, weights),
        seed,
    )


@pytest.mark.parametrize("seed", range(40))
def test_token_class_counts_refuse_groupings_that_are_not_of_twins(seed):
    rows, w = token_rows(*random_token_table(np.random.default_rng(seed))[1:])
    cls, sizes, true_twin = twins = oracle._token_twin_classes(rows, w)
    assert oracle._token_class_counts(rows, w, twins) is not None
    # false twins differ in A + I, true twins in A: the other kind is refused
    for c in np.flatnonzero(np.array(sizes) > 1):
        flipped = true_twin.copy()
        flipped[c] = not flipped[c]
        assert oracle._token_class_counts(rows, w, (cls, sizes, flipped)) is None, c
    # two classes merged into one are twins of neither kind
    if len(sizes) > 1:
        merged = [max(c - 1, 0) for c in cls]
        merged_sizes = [sizes[0] + sizes[1], *sizes[2:]]
        for true in (False, True):
            layout = (merged, merged_sizes, [true, *true_twin[2:]])
            assert oracle._token_class_counts(rows, w, layout) is None, true
    # sizes that are not the classes' weights
    wrong = sizes.copy()
    wrong[0] += 1
    assert oracle._token_class_counts(rows, w, (cls, wrong, true_twin)) is None


def test_verify_spectrum_builds_no_k_by_k_matrix(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("verify built a k x k matrix")

    monkeypatch.setattr(graphcore.Graph, "__init__", unreachable)
    for name in ("Graph", "build_bruteforce_wzd", "build_structural_wzd", "graphs_equal"):
        monkeypatch.setattr(graphcore, name, unreachable)
    monkeypatch.setattr(oracle, "laplacian_matrix", unreachable)
    for name in ("packed_rows", "twin_classes", "class_counts", "laplacian_eigenvalues"):
        monkeypatch.setattr(kxk_reference, name, unreachable)
    # the k x k twin route lives in the tests alone
    assert not {"_packed_rows", "_twin_classes", "_class_counts"} & set(vars(oracle))
    for n in (240, 5040, 8186):
        assert verify_spectrum(n).status == STATUS_PASS, n
    # order 4093: a k x k bool adjacency alone is k^2 bytes, 16 MB
    k = wzd_spectrum_closed_form(8186).order
    reports = []
    assert traced_peak(lambda: reports.append(verify_spectrum(8186))) < k * k / 8
    assert reports[0].status == STATUS_PASS


def test_verify_spectrum_refuses_primes_above_the_scan_bound(monkeypatch):
    def unreachable(n, divs):
        raise AssertionError("the vertices are listed before the bound check")

    assert graphcore.MAX_SCAN_MODULUS == (graphcore.MAX_GRAPH_ORDER + 1) ** 2 == 16785409
    monkeypatch.setattr(graphcore, "zero_divisors", unreachable)
    for n in (graphcore.MAX_SCAN_MODULUS + 12, 100000007, 10**18 + 3):  # primes
        assert wzd_spectrum_closed_form(n).order == 0
        with pytest.raises(OrderCapError, match=f"n = {n} is above 16785409"):
            verify_spectrum(n)


def test_verify_spectrum_of_a_prime_below_the_scan_bound_is_cheap():
    n = 16785407  # the largest prime below MAX_SCAN_MODULUS
    assert n < graphcore.MAX_SCAN_MODULUS and wzd_spectrum_closed_form(n).order == 0
    start = time.perf_counter()
    assert verify_spectrum(n).status == STATUS_DEGENERATE
    assert time.perf_counter() - start < 1.0


def test_verify_spectrum_refuses_orders_above_the_limit(monkeypatch):
    def unreachable(n):
        raise AssertionError("the graph is built before the order check")

    monkeypatch.setattr(graphcore, "MAX_GRAPH_ORDER", 11)
    assert verify_spectrum(18).status == STATUS_PASS  # 11 vertices
    monkeypatch.setattr(oracle, "scan_wzd_tokens", unreachable)
    with pytest.raises(OrderCapError) as refused:
        verify_spectrum(26)
    with pytest.raises(OrderCapError) as by_classes:
        graphcore.divisor_classes(26)
    assert str(refused.value) == str(by_classes.value)
    assert str(refused.value) == "WΓ(Z_26) has 13 vertices, above the limit of 11"


def test_verify_spectrum_cap_skips_charpoly():
    rep = verify_spectrum(18, order_cap=5)
    assert rep.status == STATUS_PASS
    assert rep.charpoly_skipped
    payload = rep.to_json_dict()
    assert payload["charpoly_skipped"] is True


def test_verify_report_json_schema():
    payload = verify_spectrum(12).to_json_dict()
    assert payload["n"] == 12 and payload["status"] == "PASS"
    assert set(payload["checks"]) == {
        "construction_equal",
        "trace_edges",
        "charpoly_match",
        "numeric_match",
        "integral",
    }
    assert payload["spectrum"]["order"] == 7
    assert "charpoly_skipped" not in payload


def test_verification_report_is_a_mutable_unhashable_record():
    rep = verify_spectrum(12)
    same = VerificationReport(12, STATUS_PASS, dict(rep.checks), wzd_spectrum_closed_form(12))
    assert rep == same and not rep.charpoly_skipped
    assert rep == VerificationReport(
        n=12, status=STATUS_PASS, checks=rep.checks, spectrum=rep.spectrum, charpoly_skipped=False
    )
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(rep) == (
        f"VerificationReport(n=12, status='PASS', checks={rep.checks!r}, "
        f"spectrum={rep.spectrum!r}, charpoly_skipped=False)"
    )
    # the --jobs pool sends reports back pickled
    assert pickle.loads(pickle.dumps(rep)) == rep
    rep.status = STATUS_FAIL
    assert rep != same


def random_adjacency(rng, k: int) -> np.ndarray:
    upper = np.triu(rng.random((k, k)) < rng.uniform(0.1, 0.9), 1)
    return upper | upper.T


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_laplacian_eigenvalues_match_jacobi_on_the_raw_laplacian(k, planted, seed):
    # planted classes of 1..5 over a host of at most 8 vertices keep the order <= 40
    rng = np.random.default_rng(seed)
    if planted:
        g = planted_twin_graph(rng, random_adjacency(rng, max(1, k // 5)))[0]
    else:
        g = Graph(labels=tuple(range(k)), adjacency=random_adjacency(rng, k))
    eigs = expand_runs(spectrum_runs(*unit_tokens(g.adjacency)))
    ref = symmetric_eigenvalues(laplacian_matrix(g))
    assert len(eigs) == len(ref) == g.vertex_count and eigs == sorted(eigs)
    assert all(abs(a - b) <= 1e-9 * max(1, len(ref)) for a, b in zip(eigs, ref))


@pytest.mark.parametrize("chunk", range(10))
def test_token_route_eigenvalues_equal_the_kxk_route_bit_for_bit(chunk):
    # 100 graphs per chunk, with twins planted over a random host and the
    # vertices shuffled so that no class is contiguous: the token route
    # emits its classes in key order, as the k x k route's sort does, so
    # Jacobi gets the same matrix and every float keeps its bits
    rng = np.random.default_rng(chunk)
    for case in range(100):
        g = planted_twin_graph(rng, random_adjacency(rng, int(rng.integers(1, 9))))[0]
        shuffle = rng.permutation(g.vertex_count)
        adj = g.adjacency[np.ix_(shuffle, shuffle)]
        tokens = np.array(spectrum_runs(*unit_tokens(adj)))
        kxk = np.array(kxk_reference.laplacian_eigenvalues(adj))
        assert tokens.tobytes() == kxk.tobytes(), (chunk, case)


def path_adjacency(k: int) -> np.ndarray:
    return np.eye(k, k=1, dtype=bool) | np.eye(k, k=-1, dtype=bool)


def test_laplacian_eigenvalues_refuses_a_leader_block_above_the_bound(monkeypatch, request):
    # P_k has no twins for k >= 4, so its leader block is of order k - 1
    monkeypatch.setattr(oracle, "JACOBI_MAX_ORDER", 4)
    runs = spectrum_runs(*unit_tokens(path_adjacency(5)))
    assert expand_runs(runs) == pytest.approx(
        np.linalg.eigvalsh(laplacian_matrix(Graph(tuple(range(5)), path_adjacency(5))))
    )
    request.getfixturevalue("no_sweep")
    with pytest.raises(OrderCapError, match="^the twin reduction leaves Jacobi order 5, "
                                             "above its limit of 4$"):
        spectrum_runs(*unit_tokens(path_adjacency(6)))


def test_verify_spectrum_fails_a_twin_free_graph_above_the_jacobi_bound(monkeypatch, no_sweep):
    # WΓ(Z_500) has 299 vertices; a scan that gives each its own token, over
    # a path, has 299 twin classes, so Jacobi would get order 298: the
    # numeric checks fail, with no sweep run
    def planted(n):
        verts = graphcore.scan_wzd_tokens(n)[0]
        k = len(verts)
        return verts, np.arange(2, k + 2), path_adjacency(k), np.ones(k, dtype=np.int64)

    monkeypatch.setattr(oracle, "scan_wzd_tokens", planted)
    rep = verify_spectrum(500)
    assert rep.status == STATUS_FAIL
    # the quotient is refused before it is counted, so there is no
    # certificate either: of order 299, it would be above the charpoly limit
    assert rep.checks["charpoly_match"] is False
    assert rep.checks["numeric_match"] is False and rep.checks["integral"] is False


def test_twin_certificate_proves_nothing_past_the_charpoly_limit(monkeypatch):
    # P_65 has 65 twin classes, each of one vertex, so its partition is
    # equitable and no twin eigenvalue is missing: only the charpoly is left
    def unreachable(m):
        raise AssertionError("the charpoly ran past its limit")

    monkeypatch.setattr(oracle, "char_poly_exact", unreachable)
    k = CHAR_POLY_MAX_ORDER + 1
    g = Graph(labels=tuple(range(k)), adjacency=path_adjacency(k))
    assert not twin_certificate(g, SpectrumMultiset.exact([(0, k)]))
