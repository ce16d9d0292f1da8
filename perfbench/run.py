#!/usr/bin/env python3
"""wzdgraph benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The operations run in a fresh worker
process with one BLAS thread; this process makes the inputs, measures set-up,
and checks every output against its own reference computations after the
worker has exited.  Times are in reference seconds (calibration.py).  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REF_S
from spans import METRICS
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

#: set-up probes before and again after the worker, besides the worker's own
#: start; two groups 25 s apart sample two moments of the machine's speed
SETUP_PROBES = 4
#: per-input medians above the tail percentile; the tail is the median of the
#: input with exactly this many inputs slower than it
TAIL_ABOVE = 10
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

#: one BLAS thread: on two threads OpenBLAS spends 1.7x the CPU time on the
#: exact check for 13 % less wall time, and the figures wander with machine load
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _start_worker(args: list[str], timeout: float) -> tuple[float, str]:
    """Run the worker to its end; returns its launch time and its stdout."""
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=ENV,
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return launched, proc.stdout


def measure_setup() -> list[tuple[float, float]]:
    """(seconds from launching a process until ``wzdgraph.cli`` is imported,
    the process's calibration loop time right after) for each probe."""
    out = []
    for _ in range(SETUP_PROBES):
        launched, stdout = _start_worker(["--probe"], PROBE_TIMEOUT_S)
        probe = json.loads(stdout)
        out.append((probe["ready"] - launched, probe["ready_loop_s"]))
    return out


def check_outputs(workload: str, inputs: list[dict], out_dir: Path, seed: int) -> list[str]:
    import check  # numpy is imported only after the worker has exited

    problems = []
    for i, inp in enumerate(inputs):
        path = out_dir / f"{i}.out"
        if not path.exists():
            continue  # the operation failed in every round; counted in ``failed``
        text = path.read_text(encoding="utf-8")
        n = inp["n"]
        if workload.startswith("verify"):
            reference, found = check.reference_spectrum(n)
            charpoly = "ok" if workload == "verify-exact" else "skipped"
            found += check.check_verify(n, text, charpoly, reference)
        elif workload == "spectrum-large":
            found = check.check_spectrum(n, inp["factors"], text)
        else:
            found = check.check_graph(n, inp["format"], text, seed)
        problems += [f"{' '.join(inp['argv'])}: {p}" for p in found]
    return problems


def end_to_end(medians: list[float], setup: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics from per-input medians and set-up samples, all
    in reference seconds."""
    # fewer than 4 * TAIL_ABOVE inputs (self-test sizes) leave no tail: use the maximum
    tail = medians[-1 - TAIL_ABOVE if len(medians) >= 4 * TAIL_ABOVE else -1]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": sum(medians), "unit": "s"},
        "op_p50_s": {"value": statistics.median(medians), "unit": "s"},
        "op_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(layers: dict[str, float]) -> dict:
    return {name: {"value": value, "unit": "s" if METRICS[name][1] == "self_s" else "count"}
            for name, value in layers.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    if not (ROOT / "src" / "wzdgraph" / "cli.py").is_file():
        raise FileNotFoundError(f"no wzdgraph sources under {ROOT / 'src'}")
    inputs = make_inputs(workload, seed, toy)
    out_dir = OUT / (workload + ("-trace" if trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup = measure_setup()
    job = {"argvs": [inp["argv"] for inp in inputs], "seed": seed, "seconds": seconds,
           "trace": trace, "out_dir": str(out_dir)}
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    launched, _ = _start_worker([str(job_path)], WORKER_TIMEOUT_S)
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    setup += [(result["ready"] - launched, result["ready_loop_s"])] + measure_setup()

    # a failed operation counts in ``failed``; ``correct`` speaks of the others
    problems = result["mismatches"] + check_outputs(workload, inputs, out_dir, seed)
    medians = sorted(
        statistics.median(t * REF_S / c for t, c in zip(ts, cs))
        for ts, cs in zip(result["times"], result["calibrations"]) if ts)
    raw_pass = sum(statistics.median(ts) for ts in result["times"] if ts)
    metrics = (per_layer(result["layers"]) if trace
               else end_to_end(medians, [t * REF_S / c for t, c in setup], result["peak_rss_mb"]))
    summary = {"workload": workload, "seed": seed, "inputs": len(inputs),
               "rounds": result["rounds"], "failures": result["failures"],
               "problems": problems, "pass_s": sum(medians), "raw_pass_s": raw_pass,
               "calibration_s": statistics.median(c for cs in result["calibrations"] for c in cs),
               "setup_samples": setup}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    for line in result["failures"][:10] + problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{workload} seed={seed}: {len(inputs)} inputs x {result['rounds']} rounds, "
          f"pass {summary['pass_s']:.4f} s (raw {raw_pass:.4f} s, calibration "
          f"{summary['calibration_s'] * 1e3:.3f} ms), {len(problems)} problems", file=sys.stderr)
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a few tiny inputs per workload (for selftest.py)")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
