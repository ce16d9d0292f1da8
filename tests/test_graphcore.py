"""Graph construction: definition scan vs structural assembly, and exports."""

import json
import pickle
import time
import tracemalloc
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kxk_reference import graph_from_edges
from wzdgraph import graphcore
from wzdgraph.cli import _component_from_json
from wzdgraph.errors import DomainError, OrderCapError
from wzdgraph.graphcore import (
    GRAPH_FORMATS,
    DivisorClass,
    Graph,
    Kind,
    build_bruteforce_wzd,
    build_structural_wzd,
    divisor_classes,
    export_graph,
    graphs_equal,
    join_tokens,
    scan_wzd_tokens,
    zero_divisors,
)
from wzdgraph.numtheory import euler_phi, factorize, is_prime

COMPOSITES_300 = [n for n in range(4, 301) if not is_prime(n)]


def build_zero_divisor_graph(n: int) -> Graph:
    """Γ(Z_n): same vertex set as WΓ(Z_n); x ~ y iff x*y = 0 mod n."""
    verts = zero_divisors(n)
    v = np.array(verts, dtype=np.int64)
    adj = np.multiply.outer(v, v) % n == 0
    np.fill_diagonal(adj, False)
    return Graph(labels=tuple(verts), adjacency=adj, modulus=n)


def is_spanning_subgraph(sub: Graph, sup: Graph) -> bool:
    """True iff vertex labels agree and every edge of ``sub`` is in ``sup``."""
    return sub.labels == sup.labels and not (sub.adjacency & ~sup.adjacency).any()


def graph_from_json(text: str) -> Graph:
    """Reference inverse of ``export_graph(..., "json")``."""
    payload = json.loads(text)
    labels = tuple(payload["vertices"])
    index = {u: i for i, u in enumerate(labels)}
    pairs = (sorted((index[u], index[v])) for u, v in payload["edges"])
    g = graph_from_edges(labels, pairs)
    return Graph(labels=labels, adjacency=g.adjacency, modulus=payload.get("modulus"))


def label_edges(g: Graph) -> list[tuple[int, int]]:
    """Reference: edges as label pairs (u, v), u < v, lexicographically sorted."""
    rows, cols = np.nonzero(np.triu(g.adjacency, 1))
    lab = g.labels
    pairs = ((lab[i], lab[j]) for i, j in zip(rows.tolist(), cols.tolist()))
    return sorted((u, v) if u < v else (v, u) for u, v in pairs)


def degrees(g: Graph) -> list[int]:
    return g.adjacency.sum(axis=1).tolist()


def reference_export(g: Graph, fmt: str) -> str:
    """Reference for ``export_graph``: one tuple per edge, sorted, then formatted."""
    edges = label_edges(g)
    if fmt == "dot":
        lines = [f"graph wzd_{g.modulus} {{"]
        lines += [f"  {u};" for u in g.labels]
        lines += [f"  {u} -- {v};" for u, v in edges]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "modulus": g.modulus,
            "vertices": list(g.labels),
            "edges": [list(e) for e in edges],
        }
        return json.dumps(payload, separators=(", ", ": ")) + "\n"
    lines = [f"{u},{v}" for u, v in edges]
    lines += [str(u) for u, d in zip(g.labels, degrees(g)) if d == 0]
    return "".join(line + "\n" for line in lines)


def components(g: Graph) -> int:
    """Connected component count by plain BFS, independent of the builders."""
    k = g.vertex_count
    adj = [np.flatnonzero(row).tolist() for row in g.adjacency]
    seen = [False] * k
    count = 0
    for start in range(k):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return count


def label_edge_set(g: Graph) -> set[tuple[int, int]]:
    return set(label_edges(g))


def annihilator(n: int, x: int) -> set[int]:
    """Reference: all r in Z_n with r*x = 0 mod n, one residue at a time."""
    if n < 2:
        raise DomainError(f"need modulus n >= 2, got {n}")
    if not 0 <= x < n:
        raise DomainError(f"residue {x} out of range for Z_{n}")
    return {r for r in range(n) if r * x % n == 0}


@pytest.mark.parametrize(
    "n, x, expected",
    [
        (18, 3, {0, 6, 12}),
        (18, 2, {0, 9}),
        (6, 0, {0, 1, 2, 3, 4, 5}),
        (12, 8, {0, 3, 6, 9}),
    ],
)
def test_annihilator_examples(n, x, expected):
    assert annihilator(n, x) == expected


@given(st.integers(min_value=2, max_value=300), st.data())
def test_annihilator_is_multiples_of_cofactor(n, data):
    import math

    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = math.gcd(x, n) if x else n
    step = n // d
    assert annihilator(n, x) == set(range(0, n, step))


def test_annihilator_domain_errors():
    with pytest.raises(DomainError):
        annihilator(1, 0)
    with pytest.raises(DomainError):
        annihilator(6, 6)


@pytest.mark.parametrize("stride", [1, 7, 1 << 20])
def test_least_annihilators_match_the_reference_sets(stride):
    # each row is tested on its own: every stride-th vertex, passed alone, gets
    # the same answer, down to one vertex per call when the stride is 2^20
    for n in range(2, 121):
        verts = zero_divisors(n)
        assert verts == [x for x in range(1, n) if gcd(x, n) > 1]
        some = verts[::stride]
        least = graphcore._least_annihilators(n, some, graphcore._divisors(n)).tolist()
        assert least == [min(annihilator(n, x) - {0}) for x in some], n
        # the annihilator is the multiples of its least positive element
        assert all(annihilator(n, x) == set(range(0, n, r)) for x, r in zip(some, least))
    for n in [*range(2, 401), 5040, 8186, 4091**2]:
        verts = zero_divisors(n)
        # n - phi(n) - 1 distinct residues that share a factor with n: all of them
        assert len(verts) == n - euler_phi(n) - 1 and verts == sorted(set(verts)), n
        assert all(0 < x < n and gcd(x, n) > 1 for x in verts), n
        some = verts[::stride]
        least = graphcore._least_annihilators(n, some, graphcore._divisors(n)).tolist()
        assert least == [n // gcd(x, n) for x in some], n


def test_divisors_match_the_factorization():
    # 257^2 and 4091^2 take the d * d == n branch
    for n in [*range(2, 3001), 257**2, 4091**2]:
        assert graphcore._divisors(n) == factorize(n).divisors(), n


def test_bruteforce_refuses_orders_above_the_limit(monkeypatch):
    def unreachable(n, verts, divs):
        raise AssertionError("the annihilators are scanned before the order check")

    monkeypatch.setattr(graphcore, "MAX_GRAPH_ORDER", 11)
    assert build_bruteforce_wzd(18).vertex_count == 11
    monkeypatch.setattr(graphcore, "_least_annihilators", unreachable)
    with pytest.raises(OrderCapError) as refused:
        build_bruteforce_wzd(26)
    with pytest.raises(OrderCapError) as by_classes:
        divisor_classes(26)
    assert str(refused.value) == str(by_classes.value)


def test_bruteforce_scans_nothing_for_a_prime(monkeypatch):
    def unreachable(n, verts, divs):
        raise AssertionError("a prime's empty vertex list was scanned")

    monkeypatch.setattr(graphcore, "_least_annihilators", unreachable)
    for p in (2, 3, 97, 16785407):
        g = build_bruteforce_wzd(p)
        assert g.labels == () and g.adjacency.shape == (0, 0) and g.modulus == p


def test_bruteforce_refuses_before_listing_the_vertices():
    # 2^24 is below MAX_SCAN_MODULUS but has 2^23 - 1 zero-divisors: listing
    # them first took 1.7 s and 593 MB
    n = 2**24
    assert n < graphcore.MAX_SCAN_MODULUS
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match="has 8388607 vertices"):
            build_bruteforce_wzd(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def definition_edges(n: int) -> set[tuple[int, int]]:
    """Reference: x ~ y iff some nonzero r annihilating x and nonzero s
    annihilating y have r*s = 0 mod n, tried one element pair at a time."""
    anns = {x: sorted(annihilator(n, x) - {0}) for x in range(1, n)}
    verts = [x for x in range(1, n) if anns[x]]
    return {
        (x, y)
        for x, y in combinations(verts, 2)
        if any(r * s % n == 0 for r in anns[x] for s in anns[y])
    }


def test_scan_equals_the_definition_pair_by_pair():
    # the range holds 2*47, 2*53, 3*37 and 11*13, whose large empty classes
    # leave pairs of annihilators with no witness at all
    for n in range(2, 201):
        g = build_bruteforce_wzd(n)
        assert g.labels == tuple(x for x in range(1, n) if gcd(x, n) > 1), n
        assert label_edge_set(g) == definition_edges(n), n


@pytest.mark.parametrize("n", [5040, 8186, 66049])
def test_scan_equals_structural_at_large_orders(n):
    # many classes; an empty class of 4092; large n and small order
    assert graphs_equal(build_bruteforce_wzd(n), build_structural_wzd(n))


def test_scan_wzd_tokens_small_case():
    # Z_18: tokens r0 = 2, 3, 6, 9 key the classes A_9, A_6, A_3, A_2, and
    # only the empty A_2 has a false diagonal
    verts, least, table, weights = graphcore.scan_wzd_tokens(18)
    assert verts == [2, 3, 4, 6, 8, 9, 10, 12, 14, 15, 16]
    assert least.tolist() == [9, 6, 9, 3, 9, 2, 9, 3, 9, 6, 9]
    assert weights.tolist() == [1, 2, 2, 6]
    assert table.tolist() == [[True] * 4] * 3 + [[True, True, True, False]]
    assert graphcore.scan_matches_classes(
        18, (verts, least, table, weights), divisor_classes(18), table.tolist()
    )


def test_bruteforce_wzd_small_cases():
    g6 = build_bruteforce_wzd(6)
    assert g6.labels == (2, 3, 4)
    assert label_edge_set(g6) == {(2, 3), (3, 4)}

    g4 = build_bruteforce_wzd(4)
    assert g4.labels == (2,) and g4.edge_count == 0

    g18 = build_bruteforce_wzd(18)
    assert g18.vertex_count == 11 and g18.edge_count == 40

    g9 = build_bruteforce_wzd(9)
    assert g9.labels == (3, 6) and label_edge_set(g9) == {(3, 6)}


def test_bruteforce_wzd_prime_is_empty():
    g = build_bruteforce_wzd(13)
    assert g.vertex_count == 0 and g.edge_count == 0


def test_divisor_classes_n18_matches_known_decomposition():
    classes = divisor_classes(18)
    got = {(c.divisor, c.members, c.kind) for c in classes}
    assert got == {
        (2, (2, 4, 8, 10, 14, 16), Kind.EMPTY),
        (3, (3, 15), Kind.COMPLETE),
        (6, (6, 12), Kind.COMPLETE),
        (9, (9,), Kind.COMPLETE),
    }


def test_divisor_classes_small_cases():
    assert [(c.divisor, c.members, c.kind) for c in divisor_classes(4)] == [
        (2, (2,), Kind.COMPLETE)
    ]
    assert [(c.divisor, c.members, c.kind) for c in divisor_classes(6)] == [
        (2, (2, 4), Kind.EMPTY),
        (3, (3,), Kind.EMPTY),
    ]


def test_divisor_classes_degenerate_for_primes():
    classes = divisor_classes(7)
    assert classes == ()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_divisor_classes_partition_properties(n):
    classes = divisor_classes(n)
    all_members = [x for c in classes for x in c.members]
    assert sorted(all_members) == zero_divisors(n)
    assert len(set(all_members)) == len(all_members)
    for c in classes:
        assert c.size == euler_phi(n // c.divisor)
        assert list(c.members) == [x for x in range(1, n) if gcd(x, n) == c.divisor]


def test_divisor_classes_scan_only_the_multiples_of_the_primes():
    # n = 4091^2 has 4090 zero-divisors among 16.7 million residues; a gcd
    # per residue took 3.8 s
    n = 4091**2
    start = time.perf_counter()
    classes = divisor_classes(n)
    assert time.perf_counter() - start < 1.0
    assert [(c.divisor, c.kind) for c in classes] == [(4091, Kind.COMPLETE)]
    assert classes[0].members == tuple(range(4091, n, 4091))


def test_structural_wzd_small_cases():
    assert label_edge_set(build_structural_wzd(6)) == {(2, 3), (3, 4)}
    g9 = build_structural_wzd(9)
    assert g9.labels == (3, 6) and label_edge_set(g9) == {(3, 6)}
    g18 = build_structural_wzd(18)
    assert g18.vertex_count == 11 and g18.edge_count == 40


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_construction_equivalence_sampled(n):
    assert graphs_equal(build_bruteforce_wzd(n), build_structural_wzd(n))


def test_zero_divisor_graph_examples():
    assert label_edge_set(build_zero_divisor_graph(6)) == {(2, 3), (3, 4)}
    assert label_edge_set(build_zero_divisor_graph(9)) == {(3, 6)}
    g12 = build_zero_divisor_graph(12)
    assert g12.labels == (2, 3, 4, 6, 8, 9, 10)
    edges = label_edge_set(g12)
    assert (4, 9) in edges and (6, 8) in edges
    assert (2, 3) not in edges
    # frozen from the definition scan over all pairs
    assert edges == {(2, 6), (3, 4), (3, 8), (4, 6), (4, 9), (6, 8), (6, 10), (8, 9)}


def test_graph_rejects_malformed_adjacency():
    ok = np.array([[False, True], [True, False]])
    with pytest.raises(DomainError):
        Graph(labels=(1, 1), adjacency=ok)
    with pytest.raises(DomainError):
        Graph(labels=(1, 2, 3), adjacency=ok)
    with pytest.raises(DomainError):
        Graph(labels=(1, 2), adjacency=ok.astype(int))
    with pytest.raises(DomainError):
        Graph(labels=(1, 2), adjacency=np.array([[False, True], [False, False]]))
    with pytest.raises(DomainError):
        Graph(labels=(1, 2), adjacency=np.eye(2, dtype=bool))
    g = Graph(labels=(1, 2), adjacency=ok)
    ok[0, 1] = ok[1, 0] = False  # the graph keeps its own read-only copy
    assert g.edge_count == 1
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = False


def test_graph_is_frozen_and_compares_by_identity():
    ok = np.array([[False, True], [True, False]])
    g = Graph((1, 2), ok, 3)
    twin = Graph(labels=(1, 2), adjacency=ok, modulus=3)
    assert g == g and g != twin and graphs_equal(g, twin)
    assert hash(g) == object.__hash__(g)
    assert len({g, twin}) == 2
    assert repr(g) == (
        "Graph(labels=(1, 2), adjacency=array([[False,  True],\n"
        "       [ True, False]]), modulus=3)"
    )
    with pytest.raises(AttributeError):
        g.modulus = 4
    with pytest.raises(AttributeError):
        del g.adjacency
    copy = pickle.loads(pickle.dumps(g))
    assert graphs_equal(copy, g) and copy.modulus == 3 and not copy.adjacency.flags.writeable


def test_divisor_classes_are_frozen_records():
    classes = divisor_classes(12)
    again = divisor_classes(12)
    assert classes == again and hash(classes) == hash(again)
    assert classes != divisor_classes(18)
    c = classes[0]
    assert c == DivisorClass(2, (2, 10), Kind.COMPLETE) != DivisorClass(2, (2, 10), Kind.EMPTY)
    assert hash(c) == hash(DivisorClass(divisor=2, members=(2, 10), kind=Kind.COMPLETE))
    assert repr(c) == "DivisorClass(divisor=2, members=(2, 10), kind=<Kind.COMPLETE: 'complete'>)"
    with pytest.raises(AttributeError):
        c.kind = Kind.EMPTY
    with pytest.raises(AttributeError):
        del c.members
    assert pickle.loads(pickle.dumps(classes)) == classes


@pytest.mark.parametrize("k, i, j", [(600, 5, 590), (600, 590, 599), (3, 0, 2)])
def test_graph_rejects_an_asymmetric_entry_in_any_tile(k, i, j):
    # (5, 590) and (590, 599) lie outside the first tile of SYMMETRY_TILE = 512
    assert graphcore.SYMMETRY_TILE == 512
    adj = np.zeros((k, k), dtype=bool)
    adj[i, j] = True
    with pytest.raises(DomainError, match="adjacency is not symmetric"):
        Graph(labels=tuple(range(k)), adjacency=adj)
    adj[j, i] = True
    assert Graph(labels=tuple(range(k)), adjacency=adj).edge_count == 1


def test_graphs_equal_distinguishes_edge_sets():
    k2 = graph_from_edges((1, 2), [(0, 1)])
    k2bar = graph_from_edges((1, 2), [])
    assert not graphs_equal(k2, k2bar)
    assert graphs_equal(k2, graph_from_edges((1, 2), [(0, 1)]))
    assert graphs_equal(build_bruteforce_wzd(6), build_zero_divisor_graph(6))


def test_spanning_subgraph_examples():
    assert is_spanning_subgraph(build_zero_divisor_graph(12), build_bruteforce_wzd(12))
    assert is_spanning_subgraph(build_zero_divisor_graph(6), build_bruteforce_wzd(6))
    k2 = graph_from_edges((1, 2), [(0, 1)])
    k2bar = graph_from_edges((1, 2), [])
    assert is_spanning_subgraph(k2bar, k2)
    assert not is_spanning_subgraph(k2, k2bar)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_zero_divisor_graph_spans_wzd(n):
    assert is_spanning_subgraph(build_zero_divisor_graph(n), build_bruteforce_wzd(n))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_vertex_count_identity(n):
    assert build_structural_wzd(n).vertex_count == n - euler_phi(n) - 1


@pytest.mark.parametrize("n", [4, 8, 9, 16, 25, 27, 36, 72, 100])
def test_all_square_prime_factors_give_complete_graphs(n):
    g = build_bruteforce_wzd(n)
    k = g.vertex_count
    assert g.edge_count == k * (k - 1) // 2


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMPOSITES_300))
def test_wzd_is_connected(n):
    g = build_structural_wzd(n)
    if g.vertex_count:
        assert components(g) == 1


def export(n: int, fmt: str) -> str:
    return export_graph(n, divisor_classes(n), fmt)


def test_export_csv():
    assert export(4, "csv") == "2\n"
    assert export(6, "csv") == "2,3\n3,4\n"


def test_export_dot():
    dot = export(6, "dot")
    assert dot.splitlines() == [
        "graph wzd_6 {",
        "  2;",
        "  3;",
        "  4;",
        "  2 -- 3;",
        "  3 -- 4;",
        "}",
    ]


def test_export_json_roundtrip():
    text = export(18, "json")
    payload = json.loads(text)
    assert payload["modulus"] == 18
    assert len(payload["vertices"]) == 11 and len(payload["edges"]) == 40
    assert payload["edges"] == sorted(payload["edges"])
    assert graphs_equal(graph_from_json(text), build_structural_wzd(18))


def test_export_unknown_format_rejected():
    with pytest.raises(DomainError):
        export(6, "xml")


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
def test_export_matches_reference_for_every_n_to_300(fmt):
    # the reference formats the definition scan's graph, so the export's
    # class-based rows are checked against a route that never sees a class
    for n in range(2, 301):
        assert export(n, fmt) == reference_export(build_bruteforce_wzd(n), fmt), n


def test_divisor_classes_refuses_orders_above_the_limit(monkeypatch):
    monkeypatch.setattr(graphcore, "MAX_GRAPH_ORDER", 11)
    assert sum(c.size for c in divisor_classes(18)) == 11
    with pytest.raises(OrderCapError, match="13 vertices, above the limit of 11"):
        divisor_classes(26)
    with pytest.raises(OrderCapError):
        build_structural_wzd(26)


def test_export_is_deterministic():
    for fmt in ("dot", "json", "csv"):
        assert export(30, fmt) == export(30, fmt)


def test_join_tokens_star():
    # K_1,2: the empty K-bar_2 as an edge list, two tokens of weight 1, and
    # the centre as a kind, one token
    edge_part = _component_from_json({"order": 2, "edges": []}, 0)[1]
    kind_part = _component_from_json({"kind": "complete", "order": 1}, 1)[1]
    table, weights = join_tokens({(0, 1)}, [edge_part, kind_part])
    assert table.tolist() == [[False, False, True], [False, False, True], [True, True, True]]
    assert table.dtype == bool and weights.dtype == np.int64 and weights.tolist() == [1, 1, 1]


def expanded(tokens) -> np.ndarray:
    """The adjacency of the graph of ``(table, weights)``: each token's row
    of T taken once per vertex, with no self-loop."""
    table, weights = tokens
    tok = np.repeat(np.arange(len(weights)), weights)
    adj = table[np.ix_(tok, tok)]
    np.fill_diagonal(adj, False)
    return adj


def test_join_tokens_of_the_divisor_classes_are_the_scans_tokens():
    # the divisor classes of n as kind components over the complete host:
    # one token per class, of weight its size and diagonal its kind, which is
    # the scan's token n/d of class A_d, so in reversed class order the join
    # is the definition scan's table and weights, diagonal included
    for n in range(2, 501):
        classes = divisor_classes(n)[::-1]
        host_edges = set(combinations(range(len(classes)), 2))
        parts = [_component_from_json({"kind": c.kind.value, "order": c.size}, i)[1]
                 for i, c in enumerate(classes)]
        table, weights = join_tokens(host_edges, parts)
        _, _, scan_table, scan_weights = scan_wzd_tokens(n)
        assert np.array_equal(weights, scan_weights) and np.array_equal(table, scan_table), n
    # each class as an edge list instead, alone or mixed with kinds: one
    # graph, the structural one relabelled into class order
    classes = divisor_classes(18)
    host_edges = set(combinations(range(len(classes)), 2))
    direct = build_structural_wzd(18)
    position = {u: i for i, u in enumerate(direct.labels)}
    order = [position[x] for c in classes for x in c.members]
    expected = direct.adjacency[np.ix_(order, order)]
    as_kind, as_edges = [], []
    for i, c in enumerate(classes):
        as_kind.append(_component_from_json({"kind": c.kind.value, "order": c.size}, i)[1])
        local = combinations(range(c.size), 2) if c.kind is Kind.COMPLETE else []
        edges = [list(e) for e in local]
        as_edges.append(_component_from_json({"order": c.size, "edges": edges}, i)[1])
    mixed = [g if i % 2 else h for i, (g, h) in enumerate(zip(as_kind, as_edges))]
    for parts in (as_kind, as_edges, mixed):
        assert np.array_equal(expanded(join_tokens(host_edges, parts)), expected)
