#!/usr/bin/env python3
"""Fast self-test of the benchmark (about 20 s).

    python3 perfbench/selftest.py

Shows that the output checks reject a spectrum with one multiplicity moved
and a graph export with one edge dropped.  Then runs every workload at toy
size, untraced and traced, through ``run.py``, and checks that each prints
every metric BENCHMARK.json names with no failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from workloads import WORKLOADS, factor_small  # noqa: E402
from wzdgraph import cli  # noqa: E402

GRAPH_METRICS = ("graphcore.build_structural.self_s", "graphcore.divisor_classes.calls",
                 "graphcore.export_graph.self_s", "graphcore.edges",
                 "graphcore.build_bruteforce.self_s", "graphcore.graphs_equal.self_s")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def wzd(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def toy_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "0.5", "--trace", str(trace), "--toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
            out = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace={trace} prints the four result keys")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                   f"{workload} trace={trace} is correct with no failed operation")
            names = sorted(m["name"] for m in spec[key])
            expect(sorted(out["metrics"]) == names,
                   f"{workload} trace={trace} reports every {key} metric of BENCHMARK.json")
            if trace and workload == "verify-numeric":
                expect(out["metrics"]["oracle.char_poly.calls"]["value"] == 0,
                       "verify-numeric never runs the exact charpoly")
            if trace and workload == "spectrum-large":
                expect(all(out["metrics"][m]["value"] == 0 for m in GRAPH_METRICS),
                       "spectrum-large builds no graph")


def _move_one(mults: list[int]) -> list[int]:
    """Move one unit of multiplicity from the last entry above 1 to the first."""
    out = list(mults)
    j = max(i for i, m in enumerate(out) if m > 1)
    out[j] -= 1
    out[0 if j else 1] += 1
    return out


def rejections() -> None:
    n = 18
    reference, problems = check.reference_spectrum(n)
    text = wzd("verify", f"{n}..{n}")
    expect(not problems and not check.check_verify(n, text, "ok", reference),
           "a correct verify report passes")
    field = re.search(r"spectrum=(\S+)", text)
    cells = [c.split(":") for c in field.group(1).split(",")]
    moved = _move_one([int(m) for _, m in cells])
    bad = text.replace(field.group(0), "spectrum=" + ",".join(
        f"{e}:{m}" for (e, _), m in zip(cells, moved)))
    expect(bool(check.check_verify(n, bad, "ok", reference)),
           "a verify report with one multiplicity moved is rejected")

    n, factors = 2**4 * 3**2 * 5 * 7 * 11, {2: 4, 3: 2, 5: 1, 7: 1, 11: 1}
    text = wzd("spectrum", str(n))
    expect(not check.check_spectrum(n, factors, text), "a correct spectrum table passes")
    row_e, row_m = text.splitlines()
    mults = [int(m) for m in row_m.split()[1:]]
    bad = f"{row_e}\nmultiplicity  {' '.join(map(str, _move_one(mults)))}\n"
    expect(bool(check.check_spectrum(n, factors, bad)),
           "a spectrum table with one multiplicity moved is rejected")

    n = 30
    for fmt in ("csv", "json", "dot"):
        text = wzd("graph", str(n), "--format", fmt)
        expect(not check.check_graph(n, fmt, text, seed=1), f"a correct {fmt} export passes")
        if fmt == "json":
            payload = json.loads(text)
            del payload["edges"][len(payload["edges"]) // 2]
            bad = json.dumps(payload)
        else:
            lines = text.splitlines(keepends=True)
            edge_rows = [i for i, line in enumerate(lines) if ("--" in line if fmt == "dot" else "," in line)]
            del lines[edge_rows[len(edge_rows) // 2]]
            bad = "".join(lines)
        expect(bool(check.check_graph(n, fmt, bad, seed=1)), f"a {fmt} export with one edge dropped is rejected")
    summary = wzd("graph", str(n))  # "WΓ(Z_30): 21 vertices, 177 edges"
    expect(check.edge_count(factor_small(n)) == int(summary.split(", ")[1].split()[0]),
           "the edge-count formula matches the edge count wzd graph prints")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rejections()
    toy_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
