"""Acceptance suite: every headline claim at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line per
criterion.  The sweeps here are the heavyweight part of the test suite; the
whole module takes a few minutes.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from kxk_reference import assemble_join, expand_runs, graph_from_edges
from test_graphcore import build_zero_divisor_graph, is_spanning_subgraph
from test_oracle import twin_certificate
from wzdgraph.graphcore import (
    Kind,
    build_bruteforce_wzd,
    build_structural_wzd,
    divisor_classes,
    graphs_equal,
    join_tokens,
)
from wzdgraph.numtheory import euler_phi, is_prime
from wzdgraph.oracle import (
    char_poly_exact,
    integrality_check,
    laplacian_matrix,
    poly_matches_spectrum,
    symmetric_eigenvalues,
    twin_quotient,
    verify_spectrum,
)
from wzdgraph.spectra import (
    SpectrumMultiset,
    WeightedHostGraph,
    join_spectrum,
    wzd_spectrum_closed_form,
)

NUMERIC_TOL = 1e-8
INTEGRAL_TOL = 1e-6


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_golden_case_n18():
    with criterion("golden case n=18: decomposition, spectrum, oracles, <1s"):
        t0 = time.perf_counter()
        classes = divisor_classes(18)
        decomposition = {(c.divisor, c.size, c.kind) for c in classes}
        assert decomposition == {
            (2, 6, Kind.EMPTY),
            (3, 2, Kind.COMPLETE),
            (6, 2, Kind.COMPLETE),
            (9, 1, Kind.COMPLETE),
        }
        closed = wzd_spectrum_closed_form(18)
        assert closed.entries == {0: 1, 5: 5, 11: 5}

        g = build_bruteforce_wzd(18)
        lap = laplacian_matrix(g)
        assert poly_matches_spectrum(char_poly_exact(lap), closed)
        numeric = symmetric_eigenvalues(lap)
        expanded = expand_runs(closed.items_sorted())
        assert all(abs(a - b) <= NUMERIC_TOL for a, b in zip(numeric, expanded))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_three_distinct_primes_n30():
    with criterion("n=30 (product of three primes): spectrum, 21 vertices, 175 edges"):
        closed = wzd_spectrum_closed_form(30)
        assert closed.entries == {0: 1, 13: 7, 17: 3, 19: 1, 21: 9}
        assert closed.order == 21
        assert closed.trace() == 2 * 175
        rep = verify_spectrum(30)
        assert rep.status == "PASS" and all(rep.checks.values())


def test_prime_power_times_prime_n12():
    with criterion("n=12 (prime power times prime): spectrum, 7 vertices, 20 edges"):
        closed = wzd_spectrum_closed_form(12)
        assert closed.entries == {0: 1, 5: 1, 7: 5}
        assert closed.order == 7
        assert closed.trace() == 2 * 20
        rep = verify_spectrum(12)
        assert rep.status == "PASS" and all(rep.checks.values())


def test_completeness_branch():
    with criterion("all prime exponents >= 2 give complete graphs {0, V^(V-1)}"):
        for n in (4, 8, 9, 16, 25, 27, 36, 72, 100):
            g = build_bruteforce_wzd(n)
            v = n - euler_phi(n) - 1
            assert g.vertex_count == v and g.edge_count == v * (v - 1) // 2, n
            expected = {0: 1} if v == 1 else {0: 1, v: v - 1}
            assert wzd_spectrum_closed_form(n).entries == expected, n
        assert wzd_spectrum_closed_form(36).entries == {0: 1, 23: 22}


def test_construction_equivalence_sweep():
    with criterion("definition scan == structural assembly for composite n in [4,300], <60s"):
        t0 = time.perf_counter()
        for n in range(4, 301):
            if is_prime(n):
                continue
            assert graphs_equal(build_bruteforce_wzd(n), build_structural_wzd(n)), n
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_integrality_sweep():
    with criterion("numeric eigenvalues integral at 1e-6 and equal to the closed form, n in [4,500]"):
        for n in range(4, 501):
            if is_prime(n):
                continue
            g = build_structural_wzd(n)
            numeric = symmetric_eigenvalues(laplacian_matrix(g))
            assert integrality_check(numeric, INTEGRAL_TOL), n
            closed = wzd_spectrum_closed_form(n)
            assert Counter(int(e) for e in np.rint(numeric)) == closed.entries, n


def _random_graph(rng: random.Random, order: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in combinations(range(order), 2) if rng.random() < 0.5]


def test_generic_join_random_cases():
    with criterion("200 random generalized joins match the assembled-graph oracle at 1e-8, "
                   "and so does their token form, as join --check solves it"):
        rng = random.Random(20260810)
        for trial in range(200):
            k = rng.randint(1, 6)
            orders = [rng.randint(1, 5) for _ in range(k)]
            host_edges = {
                (i, j) for i, j in combinations(range(k), 2) if rng.random() < 0.5
            }
            host = WeightedHostGraph(
                labels=tuple(range(k)),
                weights=tuple(orders),
                edges=frozenset(host_edges),
            )
            parts = [graph_from_edges(range(m), _random_graph(rng, m)) for m in orders]
            comps = []
            for g in parts:
                eigs = symmetric_eigenvalues(laplacian_matrix(g))
                comps.append(SpectrumMultiset.floating((e, 1) for e in eigs))
            predicted = expand_runs(join_spectrum(host, comps).items_sorted())
            assembled = assemble_join(host_edges, parts)
            oracle_eigs = symmetric_eigenvalues(laplacian_matrix(assembled))
            assert len(predicted) == len(oracle_eigs) == sum(orders), trial
            assert all(
                abs(a - b) <= NUMERIC_TOL for a, b in zip(oracle_eigs, predicted)
            ), trial
            units = [(g.adjacency, np.ones(g.vertex_count, dtype=np.int64)) for g in parts]
            token_eigs = expand_runs(twin_quotient(*join_tokens(host_edges, units))[3])
            assert len(token_eigs) == len(oracle_eigs), trial
            assert all(abs(a - b) <= NUMERIC_TOL for a, b in zip(oracle_eigs, token_eigs)), trial


def test_spanning_subgraph_sweep():
    with criterion("x*y=0 graph spans the weak graph for composite n in [4,300]"):
        for n in range(4, 301):
            if is_prime(n):
                continue
            assert is_spanning_subgraph(
                build_zero_divisor_graph(n), build_bruteforce_wzd(n)
            ), n


def test_exact_polynomial_sweep():
    with criterion("twin-quotient certificate proves the closed form, n in [4,200]"):
        for n in range(4, 201):
            if is_prime(n):
                continue
            g = build_structural_wzd(n)
            assert twin_certificate(g, wzd_spectrum_closed_form(n)), n
