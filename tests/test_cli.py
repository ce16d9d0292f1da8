"""Command-line contract: formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from wzdgraph import cli, graphcore, oracle, spectra
from wzdgraph.cli import _worker_count, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_text(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "30")
    assert code == 0
    assert out.splitlines() == [
        "eigenvalue    0 13 17 19 21",
        "multiplicity  1  7  3  1  9",
    ]


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "18", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 18 and payload["order"] == 11
    assert payload["entries"] == [
        {"eigenvalue": 0, "multiplicity": 1},
        {"eigenvalue": 5, "multiplicity": 5},
        {"eigenvalue": 11, "multiplicity": 5},
    ]


def test_spectrum_of_huge_n_with_an_exponent_one_prime(capsys):
    # 2^56 * 3: V = 2^57 - 1, and A_3 has phi(2^56) = 2^55 members
    code, out, _ = run_cli(capsys, "spectrum", str(2**56 * 3), "--format", "json")
    assert code == 0
    v, f = 2**57 - 1, 2**55
    assert json.loads(out)["entries"] == [
        {"eigenvalue": 0, "multiplicity": 1},
        {"eigenvalue": v - f, "multiplicity": f - 1},
        {"eigenvalue": v, "multiplicity": v - f},
    ]


def test_spectrum_of_a_21_digit_prime(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "spectrum", str(10**20 + 39))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "no zero-divisors; spectrum empty\n"


def test_spectrum_of_a_semiprime_with_two_10_digit_factors(capsys):
    # n = pq: V = p + q - 2; A_p has q - 1 members and A_q has p - 1
    p, q = 9999999943, 9999999967
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "spectrum", str(p * q), "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    v = p + q - 2
    assert json.loads(out)["entries"] == [
        {"eigenvalue": 0, "multiplicity": 1},
        {"eigenvalue": v - (q - 1), "multiplicity": q - 2},
        {"eigenvalue": v - (p - 1), "multiplicity": p - 2},
        {"eigenvalue": v, "multiplicity": 1},
    ]


@pytest.mark.parametrize(
    "n", [3317044064679887385961981, 1000000000039 * 1000000000061]
)
def test_spectrum_refuses_n_it_cannot_factor(capsys, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", str(n))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_prime_is_informative_noop(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "7")
    assert code == 0
    assert out == "no zero-divisors; spectrum empty\n"


def test_spectrum_small_n_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "1")
    assert code == 2


def test_graph_classes_listing(capsys):
    code, out, _ = run_cli(capsys, "graph", "18", "--classes")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "WΓ(Z_18): 11 vertices, 40 edges"
    assert lines[1] == "classes:"
    assert lines[2].strip().startswith("2: K̄_6")
    assert lines[3].strip().startswith("3: K_2")
    assert lines[4].strip().startswith("6: K_2")
    assert lines[5].strip().startswith("9: K_1")


def test_graph_csv(capsys):
    code, out, _ = run_cli(capsys, "graph", "6", "--format", "csv")
    assert code == 0
    assert out == "2,3\n3,4\n"


def test_graph_dot_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "graph", "4", "--format", "dot")
    assert code == 0
    assert out == "graph wzd_4 {\n  2;\n}\n"


def test_graph_json_with_classes(capsys):
    code, out, _ = run_cli(capsys, "graph", "12", "--format", "json", "--classes")
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 12
    kinds = {c["divisor"]: c["kind"] for c in payload["classes"]}
    assert kinds == {2: "complete", 3: "empty", 4: "complete", 6: "complete"}


@pytest.mark.parametrize("n", [12, 18, 360])
def test_graph_json_with_classes_is_the_export_plus_the_listing(capsys, n):
    code, out, _ = run_cli(capsys, "graph", str(n), "--format", "json", "--classes")
    assert code == 0
    # the export half from the definition scan, not from the classes the CLI writes
    g = graphcore.build_bruteforce_wzd(n)
    rows, cols = np.triu(g.adjacency, 1).nonzero()  # row-major: u < v, rows ascending
    labels = list(g.labels)
    export = {
        "modulus": n,
        "vertices": labels,
        "edges": [[labels[i], labels[j]] for i, j in zip(rows.tolist(), cols.tolist())],
    }
    listing = [
        {"divisor": c.divisor, "kind": c.kind.value, "members": list(c.members)}
        for c in graphcore.divisor_classes(n)
    ]
    payload = json.loads(out)
    assert list(payload) == ["modulus", "vertices", "edges", "classes"]
    assert payload == {**export, "classes": listing}


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (("8186", "--format", "csv"),
         "33393ad80a5c57bb44855a1000fd92517428828164a2bb338c71c93f54904af6"),
        (("1200", "--format", "json"),
         "a368d0337ea4591779e655d8035671fa9a9a33f07c021e86e1ad2f51f1c5cc09"),
        (("5040", "--format", "json", "--classes"),
         "1cd45bbe48a73c5a1a450e0ea4ba965347bb18b98bf2b8e97952940e33a7d129"),
    ],
    ids=["8186-csv", "1200-json", "5040-json-classes"],
)
def test_graph_export_is_byte_identical_to_its_recorded_digest(capsys, argv, digest):
    # sha256 of stdout as recorded when the export was written from the
    # k x k adjacency: an empty class of 4092, many classes, and the listing
    code, out, _ = run_cli(capsys, "graph", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_text_counts_are_the_definition_scans(capsys):
    # the counts come from the classes alone: C(k, 2) less C(|A_d|, 2) per
    # empty class; the scan counts them on the graph it built
    for n in range(2, 1500):
        code, out, _ = run_cli(capsys, "graph", str(n))
        g = graphcore.build_bruteforce_wzd(n)
        note = " (no zero-divisors)" if g.vertex_count == 0 else ""
        assert code == 0 and out == (
            f"WΓ(Z_{n}): {g.vertex_count} vertices, {g.edge_count} edges{note}\n"
        ), n


def test_graph_refuses_orders_above_the_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: WΓ(Z_100000) has 59999 vertices, above the limit of "
        f"{graphcore.MAX_GRAPH_ORDER}\n"
    )


def test_graph_csv_with_classes_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "graph", "12", "--format", "csv", "--classes")
    assert code == 2 and "classes" in err


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "18..18")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=18 PASS spectrum=0:1,5:5,11:5")
    assert "charpoly=ok" in lines[0]


def test_verify_range_counts_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "4..20")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17 + 1  # one per n plus the summary
    degenerate = sum("DEGENERATE-EMPTY" in line for line in lines[:-1])
    assert degenerate == len([n for n in range(4, 21) if all(n % d for d in range(2, n))])
    assert lines[-1] == "checked 17 values in 4..20: 11 pass, 6 degenerate, 0 fail"


def test_verify_json_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "10..12", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in reports] == [10, 11, 12]
    assert reports[1]["status"] == "DEGENERATE-EMPTY"
    assert reports[2]["status"] == "PASS"
    assert reports[2]["spectrum"]["entries"][0] == {"eigenvalue": 0, "multiplicity": 1}


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ("verify", "4..400"),
            398,
            "aad42665571f359bb7e8a74f1294f1579dec4f4d3033bffdf69dc9f8b2ff3141",
        ),
        (
            ("verify", "4..300", "--format", "json"),
            297,
            "e07f70a961575c5dbea20f8a6ecb840e6113966f763740f638272cfc7763b079",
        ),
        (
            ("verify", "100..160", "--max-order", "8"),
            62,
            "1ab98ae3236105423a328393b44faf7f4a8ad2f27e0753ccc74b5109d9d96c1f",
        ),
    ],
)
def test_verify_output_is_byte_identical_to_its_recorded_digest(capsys, argv, lines, digest):
    # sha256 of stdout as first recorded; any change to a verdict, a check
    # name or the spectrum text changes it
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_parallel_jobs_output_matches_serial(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "4..40")
    code2, out2, _ = run_cli(capsys, "verify", "4..40", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


class FlushLog(io.StringIO):
    """A stdout that remembers what had been flushed."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_prints_each_report_before_the_next_starts(monkeypatch, fmt):
    log = FlushLog()
    monkeypatch.setattr(sys, "stdout", log)
    flushed_at_start = {}
    real = cli._verify_worker

    def worker(args):
        flushed_at_start[args[0]] = log.flushed
        return real(args)

    monkeypatch.setattr(cli, "_verify_worker", worker)
    assert main(["verify", "4..9", "--format", fmt]) == 0
    lines = log.getvalue().splitlines()
    assert len(lines) == (7 if fmt == "text" else 6)
    assert flushed_at_start[4] == ""
    assert flushed_at_start[9].splitlines() == lines[:5]
    if fmt == "text":
        assert lines[-1].startswith("checked 6 values in 4..9: ")


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(1000, 50) == 4
    assert _worker_count(3, 50) == 3
    assert _worker_count(1000, 2) == 2
    assert _worker_count(1, 50) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 50) == 1


def test_verify_with_one_job_does_not_count_the_cpus(capsys, monkeypatch):
    def unreachable():
        raise AssertionError("--jobs 1 asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", unreachable)
    code, out, _ = run_cli(capsys, "verify", "4..9", "--jobs", "1")
    assert code == 0 and out.endswith("checked 6 values in 4..9: 4 pass, 2 degenerate, 0 fail\n")


def test_verify_prime_runs_no_spectral_stage(capsys, monkeypatch):
    # a prime's graph has no vertex: its report rests on the construction
    # check and the trace, and the JSON is byte for byte what it was when every
    # stage ran on the empty graph
    def unreachable(*args):
        raise AssertionError("a spectral stage ran on a prime")

    for name in ("_token_twin_classes", "char_poly_exact", "symmetric_eigenvalues"):
        monkeypatch.setattr(oracle, name, unreachable)
    primes = [p for p in range(2, 1001) if all(p % d for d in range(2, p))] + [16785407]
    assert len(primes) == 169
    out = []
    for p in primes:
        code, text, _ = run_cli(capsys, "verify", f"{p}..{p}", "--format", "json")
        assert code == 0, p
        out.append(text)
    assert out[-1] == (
        '{"n": 16785407, "status": "DEGENERATE-EMPTY", "checks": {"construction_equal": true, '
        '"trace_edges": true, "charpoly_match": true, "numeric_match": true, "integral": true}, '
        '"spectrum": {"n": 16785407, "variant": "exact", "order": 0, "entries": []}}\n'
    )
    digest = "1d1d982048c756ba3b55d423310897dd9031534cef2c085a61b81975f50c0114"
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


def test_verify_refuses_orders_above_the_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "100000..100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: WΓ(Z_100000) has 59999 vertices, above the limit of "
        f"{graphcore.MAX_GRAPH_ORDER}\n"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_range_stops_at_the_first_refused_n(capsys, jobs):
    # 8219 and 8221 are prime; 8220 = 2^2 * 3 * 5 * 137 has 6043 zero-divisors
    code, out, err = run_cli(capsys, "verify", "8219..8221", "--jobs", jobs)
    assert code == 2
    assert out == "n=8219 DEGENERATE-EMPTY (prime; no zero-divisors)\n"
    assert err == (
        f"error: WΓ(Z_8220) has 6043 vertices, above the limit of "
        f"{graphcore.MAX_GRAPH_ORDER}\n"
    )


def test_verify_jobs_stops_at_a_refused_n_without_running_the_rest(capsys):
    # 8210 (order 4929) is refused first; 8211 (order 3986), 8213 and 8215
    # would be verified if the pool ran what pool.map had queued
    code, out, err = run_cli(capsys, "verify", "8210..8216")
    start = time.perf_counter()
    pooled = run_cli(capsys, "verify", "8210..8216", "--jobs", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: WΓ(Z_8210) has 4929 vertices, above the limit of "
        f"{graphcore.MAX_GRAPH_ORDER}\n"
    )
    assert pooled == (code, out, err)


@pytest.mark.parametrize("n", [100000007, 10**18 + 3])
def test_verify_refuses_primes_above_the_scan_bound(capsys, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", f"{n}..{n}")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: n = {n} is above {graphcore.MAX_SCAN_MODULUS}, the largest "
        f"modulus the definition scan takes\n"
    )


def test_verify_empty_range_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "3..2")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "0", "-0.5"])
def test_verify_refuses_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    # a NaN tolerance used to pass the integrality check of every n
    code, out, err = run_cli(capsys, "verify", "12..12", "--tol", tol)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"wzd verify: error: argument --tol: tolerance must be finite and positive, got {tol}"
    ]


def test_verify_max_order_skips_charpoly(capsys):
    code, out, _ = run_cli(capsys, "verify", "18..18", "--max-order", "5")
    assert code == 0
    assert "charpoly=skipped" in out.splitlines()[0]


def test_verify_certifies_orders_above_256_by_default(capsys):
    # order 263; the exact check has no default cap
    code, out, _ = run_cli(capsys, "verify", "360..360", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"]["order"] == 263
    assert payload["checks"]["charpoly_match"] is True
    assert "charpoly_skipped" not in payload


def test_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "18..18", "--format", "csv")
    assert code == 0
    assert out == "18,11,40,0|5|11,1|5|5,5,11\n"

    code, out, _ = run_cli(capsys, "table", "4..4")
    assert code == 0
    assert out == "4,1,0,0,1,,0\n"

    code, out, _ = run_cli(capsys, "table", "30..30")
    assert code == 0
    assert out.startswith("30,21,175,")


def test_table_row_of_a_12_digit_n(capsys):
    # 10^12 = 2^12 5^12 has no prime dividing it exactly once: WΓ is complete
    v = 10**12 - 4 * 10**11 - 1
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "table", "1000000000000..1000000000000")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == f"1000000000000,{v},{v * (v - 1) // 2},0|{v},1|{v - 1},{v},{v}\n"
    assert elapsed < 1.0


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "12..12", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row == {
        "n": 12,
        "vertices": 7,
        "edges": 20,
        "eigenvalues": [0, 5, 7],
        "multiplicities": [1, 1, 5],
        "algebraic_connectivity": 5,
        "spectral_radius": 7,
    }


STAR_INPUT = {
    "host": {"labels": ["a", "b"], "weights": [2, 1], "edges": [["a", "b"]]},
    "components": [{"kind": "empty", "order": 2}, {"kind": "complete", "order": 1}],
}


def test_join_star(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR_INPUT))
    code, out, _ = run_cli(capsys, "join", str(path))
    assert code == 0
    assert out.splitlines() == ["eigenvalue    0 1 3", "multiplicity  1 1 1"]


def test_join_single_vertex_host(tmp_path, capsys):
    payload = {
        "host": {"labels": [0], "weights": [3], "edges": []},
        "components": [{"kind": "complete", "order": 3}],
    }
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path), "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["entries"] == [
        {"eigenvalue": 0, "multiplicity": 1},
        {"eigenvalue": 3, "multiplicity": 2},
    ]


def test_join_upsilon_matches_spectrum_command(tmp_path, capsys):
    payload = {
        "n": 18,
        "host": {
            "labels": [2, 3, 6, 9],
            "weights": [6, 2, 2, 1],
            "edges": [[2, 3], [2, 6], [2, 9], [3, 6], [3, 9], [6, 9]],
        },
        "components": [
            {"kind": "empty", "order": 6},
            {"kind": "complete", "order": 2},
            {"kind": "complete", "order": 2},
            {"kind": "complete", "order": 1},
        ],
    }
    path = tmp_path / "ups18.json"
    path.write_text(json.dumps(payload))
    code_join, out_join, _ = run_cli(capsys, "join", str(path), "--format", "json")
    code_spec, out_spec, _ = run_cli(capsys, "spectrum", "18", "--format", "json")
    assert code_join == code_spec == 0
    assert out_join == out_spec


def test_join_check_passes(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR_INPUT))
    code, out, _ = run_cli(capsys, "join", str(path), "--check")
    assert code == 0
    assert out.splitlines()[-1] == "check: ok (3 vertices)"


def test_join_check_detects_mismatch(tmp_path, capsys, monkeypatch):
    # a component spectrum that disagrees with the graph --check assembles:
    # K_2 predicted as if it were edgeless
    exact = cli.spectra.SpectrumMultiset.exact
    monkeypatch.setattr(cli.spectra, "component_spectrum", lambda order, kind: exact([(0, order)]))
    payload = {
        "host": {"labels": [0, 1], "weights": [2, 1], "edges": [[0, 1]]},
        "components": [{"kind": "complete", "order": 2}, {"kind": "complete", "order": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "join", str(path), "--check")
    assert code == 1
    assert "disagree" in err


def test_join_with_explicit_component_edges(tmp_path, capsys):
    # path component given purely by its edge list
    payload = {
        "host": {"labels": [0, 1], "weights": [3, 1], "edges": []},
        "components": [
            {"order": 3, "edges": [[0, 1], [1, 2]]},
            {"kind": "complete", "order": 1},
        ],
    }
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path), "--format", "json", "--check")
    assert code == 0
    result = json.loads(out)
    assert result["variant"] == "float"
    eigs = [e["eigenvalue"] for e in result["entries"]]
    mults = [e["multiplicity"] for e in result["entries"]]
    assert eigs == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)
    assert mults == [2, 1, 1]


def test_join_check_builds_an_edge_list_component_once(tmp_path, capsys, monkeypatch):
    # the table the component's spectrum came from is the one assembled
    built, joined = [], []
    real_table, real_join = cli._edge_table, graphcore.join_tokens

    def counting(*args):
        built.append(real_table(*args))
        return built[-1]

    def spy(host_edges, parts):
        joined.append(parts)
        return real_join(host_edges, parts)

    monkeypatch.setattr(cli, "_edge_table", counting)
    monkeypatch.setattr(graphcore, "join_tokens", spy)
    payload = {
        "host": {"labels": [0, 1], "weights": [4, 2], "edges": [[0, 1]]},
        "components": [
            {"order": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            {"kind": "empty", "order": 2},
        ],
    }
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path), "--check")
    assert code == 0 and out.splitlines()[-1] == "check: ok (6 vertices)"
    assert len(built) == 1 and len(joined) == 1 and joined[0][0][0] is built[0]


def test_join_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "join", str(path))
    assert code == 2 and "bad join input" in err

    code, _, _ = run_cli(capsys, "join", str(tmp_path / "missing.json"))
    assert code == 2


def one_component_join(component, weight):
    return {
        "host": {"labels": [0], "weights": [weight], "edges": []},
        "components": [component],
    }


def spectrum_component(*pairs):
    entries = [{"eigenvalue": e, "multiplicity": m} for e, m in pairs]
    return {"spectrum": {"entries": entries}}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(one_component_join(spectrum_component(("a", 1)), 1)),
        json.dumps(one_component_join(spectrum_component((0, 1.5), (1, 0.5)), 2)),
        json.dumps(one_component_join(spectrum_component((0, True)), 1)),
        json.dumps(one_component_join(spectrum_component((0, 2), (1, -1)), 1)),
        json.dumps(one_component_join(spectrum_component((True, 1)), 1)),
        json.dumps(one_component_join(spectrum_component((0, 1), (10**400, 1)), 2)),
        json.dumps(one_component_join(spectrum_component((0, 1), (float("nan"), 1)), 2)),
        json.dumps(one_component_join(spectrum_component((0, 1), (float("inf"), 1)), 2)),
    ],
    ids=["string-eigenvalue", "fractional-multiplicities", "bool-multiplicity",
         "negative-multiplicity", "bool-eigenvalue", "eigenvalue-past-float",
         "nan-eigenvalue", "infinite-eigenvalue"],
)
def test_join_rejects_malformed_spectrum_entries(tmp_path, capsys, text):
    path = tmp_path / "bad_spectrum.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err.startswith("bad join input: component 0: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "payload, flags",
    [
        (one_component_join("K3", 3), []),
        (one_component_join({"order": 3, "edges": [[0, 1, 2]]}, 3), []),
        (one_component_join({"order": 3, "edges": [[0, 0]]}, 3), []),
        (one_component_join({"order": 2, "edges": [["a", "b"]]}, 2), ["--check"]),
        (one_component_join({"order": 2, "edges": 5}, 2), ["--check"]),
        ({"host": {"labels": [0, 1], "weights": [1, 1], "edges": [[0, 1, 1]]},
          "components": [{"kind": "empty", "order": 1}] * 2}, []),
        # a kind with edges printed the kind's spectrum, and --check then
        # assembled the edges and reported a mismatch with exit 1
        (one_component_join({"kind": "complete", "order": 3, "edges": []}, 3), []),
        (one_component_join({"kind": "complete", "order": 3, "edges": []}, 3), ["--check"]),
        (one_component_join({**spectrum_component((0, 1)), "kind": "empty", "order": 1}, 1), []),
        (one_component_join({"order": 1}, 1), []),
    ],
    ids=["component-not-object", "edge-triple", "edge-loop", "string-edge-check",
         "edges-not-a-list-check", "host-edge-triple", "kind-and-edges", "kind-and-edges-check",
         "spectrum-and-kind", "no-spectrum-kind-or-edges"],
)
def test_join_rejects_malformed_edges_and_components(tmp_path, capsys, payload, flags):
    path = tmp_path / "bad_edges.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "join", str(path), *flags)
    assert code == 2 and out == ""
    assert err.startswith("bad join input: ") and err.count("\n") == 1


def test_join_check_refuses_a_spectrum_only_component(tmp_path, capsys):
    payload = {
        "host": {"labels": [0, 1], "weights": [1, 2], "edges": [[0, 1]]},
        "components": [{"kind": "complete", "order": 1}, spectrum_component((0, 1), (2, 1))],
    }
    path = tmp_path / "spectrum_only.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path))
    # K_1 joined to K_2 is K_3
    assert code == 0 and out.splitlines() == ["eigenvalue    0 3", "multiplicity  1 2"]
    code, out, err = run_cli(capsys, "join", str(path), "--check")
    assert code == 2 and out == ""
    assert err == (
        "bad join input: component 1 has no edge list; cannot assemble the join\n"
    )


def test_join_refuses_explicit_graphs_above_the_order_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphcore, "MAX_GRAPH_ORDER", 3)

    def no_graph(*args, **kwargs):
        raise AssertionError("graph built before the order check")

    monkeypatch.setattr(cli, "_edge_table", no_graph)
    monkeypatch.setattr(graphcore, "join_tokens", no_graph)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(one_component_join({"order": 4, "edges": [[0, 1]]}, 4)))
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err == "error: join component 0 has 4 vertices, above the limit of 3\n"
    # a kind needs no graph, until --check assembles the join
    path.write_text(json.dumps(one_component_join({"kind": "complete", "order": 4}, 4)))
    code, out, _ = run_cli(capsys, "join", str(path))
    assert code == 0 and out.splitlines() == ["eigenvalue    0 4", "multiplicity  1 3"]
    code, out, err = run_cli(capsys, "join", str(path), "--check")
    assert code == 2 and out == ""
    assert err == "error: the assembled join has 4 vertices, above the limit of 3\n"


@pytest.mark.parametrize("order", [0, -2])
@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_join_refuses_a_component_order_below_one(tmp_path, capsys, flags, order):
    # an edge list below order 1 is refused for its order, as a kind is,
    # not read as a graph on range(order) of no vertex
    path = tmp_path / "order.json"
    for component in ({"order": order, "edges": []}, {"kind": "empty", "order": order}):
        path.write_text(json.dumps(one_component_join(component, 1)))
        code, out, err = run_cli(capsys, "join", str(path), *flags)
        assert code == 2 and out == ""
        assert err == f"bad join input: component order must be >= 1, got {order}\n", component


def test_join_weight_mismatch_is_input_error(tmp_path, capsys):
    payload = {
        "host": {"labels": [0], "weights": [2], "edges": []},
        "components": [{"kind": "complete", "order": 3}],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "join", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "labels, weights",
    [(["a", "b"], [1.5, 2]), (["a", "b"], ["x", 2]), (["a", "b"], [True, 2]),
     (["a", "a"], [1, 2])],
    ids=["float-weight", "string-weight", "bool-weight", "duplicate-label"],
)
def test_join_rejects_bad_host(tmp_path, capsys, labels, weights):
    # int(1.5) and int(True) would both fit the order-1 first component
    payload = {
        "host": {"labels": labels, "weights": weights, "edges": []},
        "components": [{"kind": "complete", "order": 1}, {"kind": "empty", "order": 2}],
    }
    path = tmp_path / "bad_host.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err.startswith("bad join input: ") and err.count("\n") == 1


def small_join():
    return {
        "host": {"labels": ["a", "b"], "weights": [1, 2], "edges": [["a", "b"]]},
        "components": [{"kind": "complete", "order": 1}, {"kind": "empty", "order": 2}],
    }


def with_field(path, value):
    """``small_join()`` with the field at ``path``, a tuple of keys, set to ``value``."""
    payload = small_join()
    *outer, last = path
    node = payload
    for key in outer:
        node = node[key]
    node[last] = value
    return payload


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("host", "labels"), "ab", "host labels must be an array"),
        (("host", "labels"), {"a": 0, "b": 1}, "host labels must be an array"),
        (("host", "edges"), {}, "host edges must be an array"),
        (("host", "weights"), {}, "host weights must be an array"),
        (("components",), {"0": {"kind": "complete", "order": 1}}, "components must be an array"),
        (("components", 1), {"order": 2, "edges": {}}, "component 1 edges must be an array"),
        (("components", 1), {"order": 2, "edges": ""}, "component 1 edges must be an array"),
        (("components", 1), {"spectrum": {"entries": {}}},
         "component 1 spectrum entries must be an array"),
        (("n",), [1, 2], "n must be absent, null or an integer >= 2, got [1, 2]"),
        (("n",), "6", "n must be absent, null or an integer >= 2, got '6'"),
        (("n",), 6.0, "n must be absent, null or an integer >= 2, got 6.0"),
        (("n",), True, "n must be absent, null or an integer >= 2, got True"),
        (("n",), 1, "n must be absent, null or an integer >= 2, got 1"),
    ],
    ids=["string-labels", "object-labels", "object-host-edges", "object-weights",
         "object-components", "object-component-edges", "string-component-edges",
         "object-spectrum-entries", "list-n", "string-n", "float-n", "bool-n", "n-below-2"],
)
def test_join_refuses_a_field_of_the_wrong_json_type(tmp_path, capsys, path, value, message):
    # a string or an object iterated as an array gave its characters or keys:
    # "ab" was two labels and {} no edges, and any n was printed back
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(with_field(path, value)))
    for flags in ([], ["--format", "json"]):
        code, out, err = run_cli(capsys, "join", str(p), *flags)
        assert code == 2 and out == ""
        assert err == f"bad join input: {message}\n"


def test_join_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"host": "\xff"}')
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err.startswith("bad join input: 'utf-8' codec can't decode") and err.count("\n") == 1


@pytest.mark.parametrize(
    "component",
    [{"kind": "complete", "order": 3.0}, {"kind": "empty", "order": True},
     {"order": True, "edges": []}],
    ids=["float-kind-order", "bool-kind-order", "bool-edges-order"],
)
@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_join_refuses_a_component_order_that_is_not_an_int(tmp_path, capsys, component, flags):
    # 3.0 was taken, and printed a multiplicity of 2.0; True was taken as 1
    path = tmp_path / "order.json"
    path.write_text(json.dumps(one_component_join(component, int(component["order"]))))
    code, out, err = run_cli(capsys, "join", str(path), *flags)
    assert code == 2 and out == ""
    assert err == (
        "bad join input: component 0 needs a spectrum, or a kind or edges with an integer order\n"
    )


def test_join_takes_host_weight_products_past_int64(tmp_path, capsys):
    # a path host of weights 10^10, 10^10, 1: its host matrix needs sqrt(10^20)
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(path_join(("complete", 10**10), ("empty", 10**10), ("complete", 1))))
    code, out, _ = run_cli(capsys, "join", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "float" and payload["order"] == 2 * 10**10 + 1
    # weights past the float range are refused in one line
    path.write_text(json.dumps(path_join(("complete", 10**400), ("complete", 1), ("empty", 1))))
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err == "bad join input: int too large to convert to float\n"


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "2b73ff1e979d8b271687f006279efb0fb317464e0446e5ceb5c561e3dd3c31fa"),
        (["--check"], "9e2a9b9b9af26cb8d0f8761f0c66516ffeae91968cdbe31908c9d7b0354c6a07"),
        (["--format", "json"], "06adc3581ee93b245779070a44653852fb6ecae0da20e79a7bbc71b9f1a0841f"),
        (["--format", "json", "--check"],
         "06adc3581ee93b245779070a44653852fb6ecae0da20e79a7bbc71b9f1a0841f"),
    ],
)
def test_join_floating_output_is_byte_identical_to_its_recorded_digest(
    tmp_path, capsys, flags, digest
):
    # sha256 of stdout as first recorded: edge-list components P_4 and K_2 and
    # the kind K_3 over the path host a - b - c, so the component spectra,
    # the host spectrum and the check all go through Jacobi in float64
    payload = {
        "host": {"labels": ["a", "b", "c"], "weights": [4, 3, 2],
                 "edges": [["a", "b"], ["b", "c"]]},
        "components": [
            {"order": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            {"kind": "complete", "order": 3},
            {"order": 2, "edges": [[0, 1]]},
        ],
    }
    path = tmp_path / "path-host.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "table", "4..40")
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "graph", "60", "--format", "dot")
        outs.add(out)
    assert len(outs) == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_parser_is_built_once_and_each_call_reports_to_its_own_stderr(monkeypatch):
    assert cli._parser() is cli._parser()
    errs = []
    for _ in range(2):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["frobnicate"]) == 2
        errs.append(err.getvalue())
    assert errs[0] == errs[1]
    assert errs[0].startswith("usage: wzd ") and "invalid choice: 'frobnicate'" in errs[0]


def path_join(*parts):
    """Join over the path host 0 - 1 - 2 ..., one (kind, order) per vertex."""
    return {
        "host": {
            "labels": list(range(len(parts))),
            "weights": [order for _, order in parts],
            "edges": [[i, i + 1] for i in range(len(parts) - 1)],
        },
        "components": [{"kind": kind, "order": order} for kind, order in parts],
    }


def two_paths_host_join():
    """Join over a host of two paths 0 - 1 - 2 and 3 - 4 - 5, complete components."""
    payload = path_join(*[("complete", w) for w in (3, 1, 2, 2, 1, 3)])
    payload["host"]["edges"].remove([2, 3])
    return payload


@pytest.mark.parametrize(
    "payload, zeros",
    [
        (path_join(("complete", 10**10), ("empty", 10**10), ("complete", 1)), 1),
        (two_paths_host_join(), 2),
        (one_component_join({"order": 8, "edges": [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6],
                                                   [6, 7]]}, 8), 2),
    ],
    ids=["heavy-path-host", "two-path-host", "two-path-component"],
)
def test_join_prints_one_exact_zero_per_connected_component(tmp_path, capsys, payload, zeros):
    # the null vector of each connected component is deflated before Jacobi;
    # the heavy path host printed its zero as 5.393643951898562e-07, and the
    # others printed theirs as about -1e-16
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "join", str(path))
    assert code == 0
    eigenvalues, multiplicities = (line.split()[1] for line in out.splitlines())
    assert (eigenvalues, multiplicities) == ("0.0", str(zeros))


@pytest.mark.parametrize("flags", [[], ["--check"]])
def test_join_refuses_a_twin_free_component_above_the_jacobi_limit(
    tmp_path, capsys, no_sweep, flags
):
    # P_258 has no twins, so its 258 classes leave Jacobi a block of 257
    order = oracle.JACOBI_MAX_ORDER + 2
    edges = [[i, i + 1] for i in range(order - 1)]
    path = tmp_path / "p258.json"
    path.write_text(json.dumps(one_component_join({"order": order, "edges": edges}, order)))
    code, out, err = run_cli(capsys, "join", str(path), *flags)
    assert code == 2 and out == ""
    assert err == (
        "error: join component 0: the twin reduction leaves Jacobi order 257, "
        "above its limit of 256\n"
    )


def test_join_refuses_a_path_host_above_the_jacobi_limit(tmp_path, capsys, monkeypatch, no_sweep):
    def unsolved(b, sizes):
        raise AssertionError("the host matrix was solved before the order check")

    monkeypatch.setattr(oracle, "quotient_eigenvalues", unsolved)
    path = tmp_path / "host6000.json"
    path.write_text(json.dumps(path_join(*[("complete", 1)] * 6000)))
    code, out, err = run_cli(capsys, "join", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: a host neither complete nor edgeless leaves Jacobi order 6000, "
        "above its limit of 256\n"
    )


def test_join_check_runs_jacobi_on_the_twin_reduced_blocks_only(tmp_path, capsys, monkeypatch):
    # the host matrix is 3 x 3, and the assembled join's three twin classes
    # leave Jacobi a 2 x 2 block
    orders = []
    real = oracle.symmetric_eigenvalues

    def spy(m, *args, **kwargs):
        orders.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(oracle, "symmetric_eigenvalues", spy)
    path = tmp_path / "path1600.json"
    path.write_text(json.dumps(path_join(("complete", 600), ("empty", 600), ("complete", 400))))
    code, out, _ = run_cli(capsys, "join", str(path), "--check")
    assert code == 0 and out.splitlines()[-1] == "check: ok (1600 vertices)"
    assert orders and max(orders) <= 3


def test_join_check_expands_no_spectrum(tmp_path, capsys, monkeypatch):
    # the check walks the numeric runs against the result's runs; the empty
    # join has no class and no run
    def unreachable(*args, **kwargs):
        raise AssertionError("a spectrum was expanded")

    assert not hasattr(spectra.SpectrumMultiset, "expand")
    monkeypatch.setattr(np, "repeat", unreachable)
    payloads = {
        "path1600": path_join(("complete", 600), ("empty", 600), ("complete", 400)),
        "p4": one_component_join({"order": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, 4),
        "empty": {"host": {"labels": [], "weights": [], "edges": []}, "components": []},
    }
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "join", str(path), "--check")
        order = sum(payload["host"]["weights"])
        assert code == 0 and out.splitlines()[-1] == f"check: ok ({order} vertices)", name


@pytest.mark.parametrize(
    "argv", [["verify", "2..3000"], ["verify", "2..3000", "--jobs", "2"], ["table", "2..20000"]]
)
def test_closed_stdout_ends_the_command_with_141_and_no_traceback(argv):
    # as `wzd verify 2..3000 | head -1`: the reader closes the pipe after one
    # line, while far more output than a pipe holds is still to come
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wzdgraph.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")
    assert first.startswith((b"n=2 ", b"2,")) and cli.EXIT_BROKEN_PIPE == 141
