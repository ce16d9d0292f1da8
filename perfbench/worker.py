"""The process that runs the operations of one workload.

Run by ``run.py`` in a fresh interpreter, never imported.  ``worker.py --probe``
only imports ``wzdgraph.cli`` and prints the moment it was ready and its
calibration loop time, for the set-up time.  ``worker.py JOB`` runs the job file: whole rounds over the
inputs, each round in a seeded order, until the job's seconds are spent.

An operation is one call of ``wzdgraph.cli.main(argv)`` with stdout and
stderr captured; the calibration loop is timed right before and right after
it (see calibration.py).  The first output of each input is written to a
file for the checker; later rounds must reproduce it byte for byte.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wzdgraph import cli  # noqa: E402  (the import is what set-up time measures)

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402

#: fewer rounds than this would make a per-input median meaningless
MIN_ROUNDS = 3


def _run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def run_job(job: dict, ready_loop: float) -> dict:
    argvs = job["argvs"]
    out_dir = Path(job["out_dir"])
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rng = random.Random(f"order:{job['seed']}")
    times: list[list[float]] = [[] for _ in argvs]
    calibrations: list[list[float]] = [[] for _ in argvs]
    round_loops: list[list[float]] = []  # every loop time of each round, for the trace
    digests: list[str | None] = [None] * len(argvs)
    failures: list[str] = []  # operations that exited non-zero or raised
    mismatches: list[str] = []  # outputs that differ from the input's first one
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + job["seconds"]
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = list(range(len(argvs)))
        rng.shuffle(order)
        round_loops.append([])
        for i in order:
            gc.collect()
            if tracer:
                tracer.round, tracer.op = rounds, i
            before = calibration.loop_seconds()
            code, elapsed, out, err = _run_op(argvs[i])
            after = calibration.loop_seconds()
            round_loops[-1].append((before + after) / 2)
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"{' '.join(argvs[i])}: exit {code}: {err.strip()[-300:]}")
                continue
            times[i].append(elapsed)
            calibrations[i].append(round_loops[-1][-1])
            digest = hashlib.sha256(out.encode()).hexdigest()
            if digests[i] is None:
                digests[i] = digest
                (out_dir / f"{i}.out").write_text(out, encoding="utf-8")
            elif digest != digests[i]:
                mismatches.append(f"{' '.join(argvs[i])}: output differs from its first in round {rounds}")
        rounds += 1
    result = {
        "ready": READY,
        "ready_loop_s": ready_loop,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "times": times,
        "calibrations": calibrations,
        "failures": failures,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from spans import layer_metrics

        tracer.write(out_dir / "spans.csv")
        # each round's self times in reference seconds, by the round's median loop time
        scale = [calibration.REF_S / statistics.median(loops) for loops in round_loops]
        result["layers"] = layer_metrics(tracer.spans, scale)
    return result


def main() -> int:
    ready_loop = calibration.ready_loop_seconds()
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"ready": READY, "ready_loop_s": ready_loop}))
        return 0
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = run_job(job, ready_loop)
    (job_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
