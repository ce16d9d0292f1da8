"""Closed-form spectra: the join engine and its WΓ(Z_n) specialization."""

import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kxk_reference
from kxk_reference import expand_runs
from wzdgraph.errors import ContractViolation, DomainError
from wzdgraph.graphcore import Kind, divisor_classes
from wzdgraph.numtheory import euler_phi, factorize, is_prime
from wzdgraph.oracle import quotient_eigenvalues
from wzdgraph.spectra import (
    EXACT,
    FLOAT,
    SpectrumMultiset,
    WeightedHostGraph,
    algebraic_connectivity,
    component_spectrum,
    join_spectrum,
    spectral_radius,
    wzd_spectrum_closed_form,
)

COMPOSITES_300 = [n for n in range(4, 301) if not is_prime(n)]


def proper_divisors(n: int) -> list[int]:
    return [d for d in range(2, n) if n % d == 0]


def exact_primes(n: int) -> set[int]:
    """Primes p with p | n but p^2 not | n."""
    return {p for p in range(2, n + 1) if n % p == 0 and n % (p * p) and is_prime(p)}


def host_upsilon(n: int) -> WeightedHostGraph:
    """The paper's host Υ_n: complete on the proper divisors d of n, weight phi(n/d)."""
    divs = factorize(n).divisors()[1:-1]
    return WeightedHostGraph(
        labels=tuple(divs),
        weights=tuple(euler_phi(n // d) for d in divs),
        edges=frozenset(combinations(range(len(divs)), 2)),
    )


def weighted_laplacian(host: WeightedHostGraph) -> np.ndarray:
    """Reference zero-row-sum host matrix: diagonal D_i, off-diagonal -n_j on edges."""
    k = host.order
    L = np.zeros((k, k), dtype=np.int64)
    d = host.neighbor_weight_sums()
    for i in range(k):
        L[i, i] = d[i]
    for i, j in host.edges:
        L[i, j] = -host.weights[j]
        L[j, i] = -host.weights[i]
    return L


def make_host(weights, edges):
    return WeightedHostGraph(
        labels=tuple(range(len(weights))),
        weights=tuple(weights),
        edges=frozenset(edges),
    )


def test_host_upsilon_examples():
    h18 = host_upsilon(18)
    assert h18.labels == (2, 3, 6, 9)
    assert h18.weights == (6, 2, 2, 1)
    assert h18.is_complete()

    h4 = host_upsilon(4)
    assert h4.labels == (2,) and h4.weights == (1,) and not h4.edges

    h12 = host_upsilon(12)
    assert h12.labels == (2, 3, 4, 6)
    assert h12.weights == (2, 2, 2, 1)
    assert h12.is_complete()


def test_host_upsilon_prime_degenerate():
    h = host_upsilon(7)
    assert h.order == 0


def test_host_upsilon_weights_match_euler_phi():
    for n in range(2, 2001):
        host = host_upsilon(n)
        assert host.labels == tuple(proper_divisors(n)), n
        assert host.weights == tuple(euler_phi(n // d) for d in host.labels), n


def test_weighted_laplacian_examples():
    L6 = weighted_laplacian(host_upsilon(6))
    assert L6.tolist() == [[1, -1], [-2, 2]]

    single = weighted_laplacian(make_host([3], []))
    assert single.tolist() == [[0]]

    L18 = weighted_laplacian(host_upsilon(18))
    assert np.diagonal(L18).tolist() == [5, 9, 9, 10]
    assert L18.sum(axis=1).tolist() == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_weighted_laplacian_rows_sum_to_zero(n):
    L = weighted_laplacian(host_upsilon(n))
    assert not L.sum(axis=1).any()


def host_counts(host: WeightedHostGraph) -> list[list[int]]:
    """B with B[i, j] = n_j on host edges, so that D - B is the row-sum form."""
    L = weighted_laplacian(host)
    return (np.diag(np.diagonal(L)) - L).tolist()


def host_component_count(host: WeightedHostGraph) -> int:
    root = list(range(host.order))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in host.edges:
        root[find(i)] = find(j)
    return len({find(i) for i in range(host.order)})


def test_host_quotient_eigenvalues_example():
    # Υ_6: weights 2 and 1 over one edge, D - B = [[1, -1], [-2, 2]]
    host = host_upsilon(6)
    eigs = quotient_eigenvalues(host_counts(host), host.weights)
    assert eigs[0] == 0.0 and np.allclose(eigs, [0.0, 3.0], rtol=1e-15, atol=1e-15)


def test_host_quotient_eigenvalues_take_weight_products_past_int64():
    # 10^10 * 10^10 >= 2^63: B is converted to float64 before the product
    b = [[0, 10**10, 0], [10**10, 0, 1], [0, 10**10, 0]]
    eigs = quotient_eigenvalues(b, [10**10, 10**10, 1])
    assert eigs[0] == 0.0
    assert np.allclose(eigs, [0.0, 1e10, 2e10 + 1], rtol=1e-14, atol=0.0)
    # past the float range the product cannot be converted at all, nor an entry
    for big in (10**200, 10**400):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            quotient_eigenvalues([[0, big], [big, 0]], [big, big])


@pytest.mark.parametrize("solve", [quotient_eigenvalues, kxk_reference.quotient_eigenvalues])
def test_host_quotient_eigenvalues_refuse_a_row_sum_past_the_float_range(solve):
    # every entry and every product is finite, but row 0 sums to 2 * 10^308:
    # a float sum would overflow to inf without a word.  Sizes of 1 (no
    # partition has these counts) keep the sizes' sum finite, so that only
    # the row sum can overflow.
    big = 10**308
    b = [[0, big, big], [1, 0, 0], [1, 0, 0]]
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        solve(b, [1, 1, 1])


@pytest.mark.parametrize("solve", [quotient_eigenvalues, kxk_reference.quotient_eigenvalues])
def test_host_quotient_eigenvalues_refuse_a_lone_class_size_past_the_float_range(solve):
    # an isolated host vertex of weight 10^400: no entry, product or row sum
    # reads its size, and its component of one class needs no reflection
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        solve([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [1, 1, 10**400])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6),
    st.data(),
)
def test_symmetrized_host_has_same_spectrum_as_row_sum_form(weights, data):
    k = len(weights)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    host = make_host(weights, chosen)
    eigs = quotient_eigenvalues(host_counts(host), host.weights)
    raw = np.sort(np.linalg.eigvals(weighted_laplacian(host).astype(float)).real)
    assert np.max(np.abs(np.array(eigs) - raw)) < 1e-10
    # each connected component of the host gives one exact zero, and only those
    assert eigs.count(0.0) == host_component_count(host)


def test_component_spectrum_examples():
    assert component_spectrum(6, Kind.EMPTY).entries == {0: 6}
    assert component_spectrum(2, Kind.COMPLETE).entries == {0: 1, 2: 1}
    assert component_spectrum(1, Kind.COMPLETE).entries == {0: 1}
    assert component_spectrum(5, Kind.COMPLETE).entries == {0: 1, 5: 4}


def test_join_spectrum_star():
    host = make_host([2, 1], [(0, 1)])
    comps = [component_spectrum(2, Kind.EMPTY), component_spectrum(1, Kind.COMPLETE)]
    s = join_spectrum(host, comps)
    assert s.variant == EXACT
    assert s.entries == {0: 1, 1: 1, 3: 1}


def test_join_spectrum_single_vertex_host():
    host = make_host([3], [])
    s = join_spectrum(host, [component_spectrum(3, Kind.COMPLETE)])
    assert s.entries == {0: 1, 3: 2}


def test_join_spectrum_upsilon18():
    classes = divisor_classes(18)
    comps = [component_spectrum(c.size, c.kind) for c in classes]
    s = join_spectrum(host_upsilon(18), comps)
    assert s.entries == {0: 1, 5: 5, 11: 5}


def test_join_spectrum_edgeless_host_is_disjoint_union():
    host = make_host([2, 3], [])
    comps = [component_spectrum(2, Kind.COMPLETE), component_spectrum(3, Kind.COMPLETE)]
    s = join_spectrum(host, comps)
    assert s.variant == EXACT
    assert s.entries == {0: 2, 2: 1, 3: 2}


def test_join_spectrum_weight_mismatch_rejected():
    host = make_host([2, 2], [(0, 1)])
    comps = [component_spectrum(2, Kind.EMPTY), component_spectrum(1, Kind.COMPLETE)]
    with pytest.raises(ContractViolation):
        join_spectrum(host, comps)


def test_join_spectrum_requires_zero_eigenvalue():
    host = make_host([2], [])
    bad = SpectrumMultiset.exact([(1, 2)])
    with pytest.raises(ContractViolation):
        join_spectrum(host, [bad])


@pytest.mark.parametrize(
    "n, expected",
    [
        (18, {0: 1, 5: 5, 11: 5}),
        (30, {0: 1, 13: 7, 17: 3, 19: 1, 21: 9}),
        (12, {0: 1, 5: 1, 7: 5}),
        (36, {0: 1, 23: 22}),
        (4, {0: 1}),
        (6, {0: 1, 1: 1, 3: 1}),
        (14, {0: 1, 1: 5, 7: 1}),
    ],
)
def test_closed_form_examples(n, expected):
    s = wzd_spectrum_closed_form(n)
    assert s.variant == EXACT and s.n == n
    assert s.entries == expected


def test_closed_form_prime_is_empty():
    s = wzd_spectrum_closed_form(11)
    assert s.order == 0 and s.entries == {}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_closed_form_order_identity(n):
    assert wzd_spectrum_closed_form(n).order == n - euler_phi(n) - 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_closed_form_zero_once_and_radius_is_vertex_count(n):
    s = wzd_spectrum_closed_form(n)
    assert s.entries[0] == 1
    if s.order >= 2:
        assert spectral_radius(s) == s.order


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_closed_form_eigenvalues_distinct_per_exact_prime(n):
    v = n - euler_phi(n) - 1
    shifted = [v - euler_phi(n // p) for p in exact_primes(n)]
    assert len(set(shifted)) == len(shifted)
    assert v not in shifted and 0 not in shifted


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=4, max_value=5000).filter(lambda n: not is_prime(n)))
def test_closed_form_matches_sum_over_host_weights(n):
    # the paper's form: V at multiplicity (sum of the class sizes phi(n/d) over
    # proper divisors d outside A') + |A'| - 1, and V - phi(n/p) at phi(n/p) - 1
    host = host_upsilon(n)
    weight = dict(zip(host.labels, host.weights))
    v = sum(host.weights)
    exact = exact_primes(n)
    if not exact:
        expected = {0: 1, v: v - 1} if v > 1 else {0: 1}
    else:
        expected = {0: 1, v: sum(w for d, w in weight.items() if d not in exact) + len(exact) - 1}
        for p in exact:
            if weight[p] > 1:
                expected[v - weight[p]] = weight[p] - 1
    assert wzd_spectrum_closed_form(n).entries == expected


def test_specialization_coherence_full_range():
    # the generic join over the divisor host reproduces the direct formula
    for n in COMPOSITES_300:
        classes = divisor_classes(n)
        comps = [component_spectrum(c.size, c.kind) for c in classes]
        joined = join_spectrum(host_upsilon(n), comps)
        assert joined.entries == wzd_spectrum_closed_form(n).entries, n


def test_algebraic_connectivity_examples():
    assert algebraic_connectivity(wzd_spectrum_closed_form(18)) == 5
    assert algebraic_connectivity(SpectrumMultiset.exact([(0, 1), (3, 2)])) == 3
    assert algebraic_connectivity(SpectrumMultiset.exact([(0, 3)])) == 0
    # a pair of multiplicity 0 counts for nothing
    assert algebraic_connectivity(SpectrumMultiset(entries={0: 1, 1: 0, 2: 3})) == 2
    assert algebraic_connectivity(SpectrumMultiset.floating([(0.0, 1), (0.5, 1), (2.0, 1)])) == 0.5
    with pytest.raises(DomainError):
        algebraic_connectivity(SpectrumMultiset.exact([(0, 1)]))


def test_algebraic_connectivity_matches_expanded_spectrum():
    for n in range(4, 3001):
        s = wzd_spectrum_closed_form(n)
        if s.order >= 2:
            assert algebraic_connectivity(s) == expand_runs(s.items_sorted())[1], n


def test_spectral_radius_examples():
    assert spectral_radius(wzd_spectrum_closed_form(18)) == 11
    assert spectral_radius(SpectrumMultiset.exact([(0, 1)])) == 0
    assert spectral_radius(wzd_spectrum_closed_form(30)) == 21
    with pytest.raises(DomainError):
        spectral_radius(SpectrumMultiset.exact([]))


def test_floating_builder_merges_close_eigenvalues():
    s = SpectrumMultiset.floating([(1.0, 1), (1.0 + 5e-8, 2), (2.0, 1)])
    assert s.variant == FLOAT
    assert list(s.entries.values()) == [3, 1]
    assert s.order == 4


def test_exact_builder_drops_zero_multiplicity_and_merges():
    s = SpectrumMultiset.exact([(5, 0), (3, 1), (3, 2), (0, 1)])
    assert s.entries == {0: 1, 3: 3}


def test_spectrum_json_schema():
    s = wzd_spectrum_closed_form(18)
    payload = s.to_json_dict()
    assert payload == {
        "n": 18,
        "variant": "exact",
        "order": 11,
        "entries": [
            {"eigenvalue": 0, "multiplicity": 1},
            {"eigenvalue": 5, "multiplicity": 5},
            {"eigenvalue": 11, "multiplicity": 5},
        ],
    }


def test_spectrum_multiset_is_a_frozen_record():
    s = SpectrumMultiset({0: 1, 3: 2})
    assert s == SpectrumMultiset(entries={0: 1, 3: 2}, variant=EXACT, n=None)
    assert s != SpectrumMultiset({0: 1, 3: 2}, EXACT, 6)
    assert s != SpectrumMultiset({0: 1, 3: 2}, FLOAT)
    assert repr(s) == "SpectrumMultiset(entries={0: 1, 3: 2}, variant='exact', n=None)"
    with pytest.raises(TypeError):
        hash(s)  # the entries are a dict
    with pytest.raises(AttributeError):
        s.n = 6
    with pytest.raises(AttributeError):
        del s.entries
    assert pickle.loads(pickle.dumps(s)) == s


def test_weighted_host_graph_is_a_frozen_record():
    host = WeightedHostGraph((2, 3), (1, 2), frozenset({(0, 1)}))
    same = WeightedHostGraph(labels=(2, 3), weights=(1, 2), edges=frozenset({(0, 1)}))
    assert host == same and hash(host) == hash(same)
    assert host != WeightedHostGraph((2, 3), (1, 2), frozenset())
    assert repr(host) == (
        "WeightedHostGraph(labels=(2, 3), weights=(1, 2), edges=frozenset({(0, 1)}))"
    )
    with pytest.raises(AttributeError):
        host.weights = (2, 2)
    with pytest.raises(AttributeError):
        del host.edges
    assert pickle.loads(pickle.dumps(host)) == host
    for labels, weights, edges in [((2, 2), (1, 2), ()), ((2, 3), (1,), ()),
                                   ((2, 3), (1, 0), ()), ((2, 3), (1, 2), [(1, 0)])]:
        with pytest.raises(ContractViolation):
            WeightedHostGraph(labels, weights, frozenset(edges))


def test_trace_counts_edges_twice():
    # trace of the closed form equals twice the explicit edge count
    from wzdgraph.graphcore import build_structural_wzd

    for n in (6, 12, 18, 30, 36, 60):
        assert wzd_spectrum_closed_form(n).trace() == 2 * build_structural_wzd(n).edge_count
