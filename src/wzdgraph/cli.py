"""Command-line surface.

Subcommands: ``spectrum``, ``graph``, ``verify``, ``table``, ``join``.
Exit codes: 0 for success or an informative degenerate result, 1 when a
verification check fails, 2 for usage or input errors, and 141, as a shell
reports a process that SIGPIPE ended, when the reader closes standard
output early (``wzd verify 2..3000 | head -1``); that ends the command
with no traceback.  Output is deterministic: identical invocations produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections.abc import Iterable

from . import spectra
from ._numpy import lazy, np
from .errors import ContractViolation, DomainError, OrderCapError
from .spectra import Kind

# run on first use: ``spectrum`` and ``table`` need none of them
graphcore = lazy(f"{__package__}.graphcore")
oracle = lazy(f"{__package__}.oracle")
json = lazy("json")


def _positive_n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(f"n must be >= 2, got {n}")
    return n


def _range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 2:
        raise argparse.ArgumentTypeError(f"range lower bound must be >= 2, got {lo}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {lo}..{hi}")
    return lo, hi


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text}")
    return x


def _positive_int(text: str) -> int:
    try:
        x = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if x < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return x


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``wzd`` parser, built on the first call and then reused; usage
    errors go to the ``sys.stderr`` of the call that meets them."""
    parser = argparse.ArgumentParser(
        prog="wzd",
        description="Weakly zero-divisor graphs of Z_n and their Laplacian spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form Laplacian spectrum of one n")
    p.add_argument("n", type=_positive_n)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("graph", help="build and serialize the graph for one n")
    p.add_argument("n", type=_positive_n)
    p.add_argument("--format", choices=("text", "json", "dot", "csv"), default="text")
    p.add_argument(
        "--classes",
        action="store_true",
        help="also emit the divisor-class decomposition (text/json formats)",
    )

    p = sub.add_parser("verify", help="run all checks over a range of n")
    p.add_argument("range", type=_range, metavar="lo..hi")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tol", type=_positive_float, default=spectra.INTEGRAL_TOL,
                   help="integrality tolerance (default %(default)g)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers over independent n")
    p.add_argument("--max-order", type=_positive_int, default=None,
                   help="skip the exact certificate above this order "
                        "(default: no limit)")

    p = sub.add_parser("table", help="summary rows over a range of n")
    p.add_argument("range", type=_range, metavar="lo..hi")
    p.add_argument("--format", choices=("text", "csv", "json"), default="csv")

    p = sub.add_parser("join", help="spectrum of a generalized join from a JSON file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--check", action="store_true",
                   help="assemble the explicit join and compare numerically")
    return parser


def _spectrum_text(s: spectra.SpectrumMultiset) -> str:
    if s.order == 0:
        return "no zero-divisors; spectrum empty\n"
    pairs = s.items_sorted()
    cells = [(str(e), str(m)) for e, m in pairs]
    widths = [max(len(a), len(b)) for a, b in cells]
    row_e = " ".join(a.rjust(w) for (a, _), w in zip(cells, widths))
    row_m = " ".join(b.rjust(w) for (_, b), w in zip(cells, widths))
    return f"eigenvalue    {row_e}\nmultiplicity  {row_m}\n"


def _class_symbol(c: graphcore.DivisorClass) -> str:
    bar = "̄"
    return (f"K{bar}_{c.size}" if c.kind is Kind.EMPTY else f"K_{c.size}")


def cmd_spectrum(n: int, fmt: str) -> int:
    s = spectra.wzd_spectrum_closed_form(n)
    if fmt == "json":
        print(json.dumps(s.to_json_dict()))
    else:
        sys.stdout.write(_spectrum_text(s))
    return 0


def cmd_graph(n: int, fmt: str, classes: bool) -> int:
    # before the --classes check: an order refusal comes first
    parts = graphcore.divisor_classes(n)
    if fmt == "text":
        k = sum(c.size for c in parts)
        # x < y are adjacent unless both lie in one empty class
        edges = math.comb(k, 2) - sum(math.comb(c.size, 2) for c in parts if c.kind is Kind.EMPTY)
        note = " (no zero-divisors)" if k == 0 else ""
        print(f"WΓ(Z_{n}): {k} vertices, {edges} edges{note}")
        if classes and parts:
            print("classes:")
            for c in parts:
                members = " ".join(str(x) for x in c.members)
                print(f"  {c.divisor}: {_class_symbol(c)}  {{{members}}}")
        return 0
    if classes and fmt != "json":
        print(f"--classes is not supported with --format {fmt}", file=sys.stderr)
        return 2
    text = graphcore.export_graph(n, parts, fmt)
    if classes:
        listing = [
            {"divisor": c.divisor, "kind": c.kind.value, "members": list(c.members)}
            for c in parts
        ]
        # the export is one JSON object ending in "}\n": append one more key
        text = f'{text[:-2]}, "classes": {json.dumps(listing)}}}\n'
    sys.stdout.write(text)
    return 0


def _verify_worker(args: tuple[int, float, int | None]) -> oracle.VerificationReport:
    n, tol, cap = args
    return oracle.verify_spectrum(n, integral_tol=tol, order_cap=cap)


def _verify_line(rep: oracle.VerificationReport) -> str:
    if rep.status == oracle.STATUS_DEGENERATE:
        return f"n={rep.n} {rep.status} (prime; no zero-divisors)"
    spec = ",".join(f"{e}:{m}" for e, m in rep.spectrum.items_sorted())
    parts = [f"n={rep.n}", rep.status, f"spectrum={spec}"]
    for name in ("construction_equal", "trace_edges", "charpoly_match",
                 "numeric_match", "integral"):
        short = name.split("_")[0]
        if name == "charpoly_match" and rep.charpoly_skipped:
            parts.append(f"{short}=skipped")
        else:
            parts.append(f"{short}={'ok' if rep.checks[name] else 'FAIL'}")
    return " ".join(parts)


def _worker_count(jobs: int, tasks: int) -> int:
    """Workers for ``--jobs``: no more than the CPUs or the tasks to share."""
    return min(jobs, os.cpu_count() or 1, tasks)


def cmd_verify(lo: int, hi: int, fmt: str, tol: float, jobs: int, cap: int | None) -> int:
    work = [(n, tol, cap) for n in range(lo, hi + 1)]
    workers = _worker_count(jobs, len(work)) if jobs > 1 else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        # the pool's result thread unpickles each report from oracle, and a
        # lazy load is not thread-safe before Python 3.12: load it here
        oracle.VerificationReport
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one n per task: an n refused by its order then fails alone,
            # after the reports before it, as in a serial run
            try:
                return _print_reports(pool.map(_verify_worker, work), lo, hi, fmt)
            except BaseException:
                # the n after a refused one are not printed: start no more
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    return _print_reports(map(_verify_worker, work), lo, hi, fmt)


def _print_reports(
    reports: Iterable[oracle.VerificationReport], lo: int, hi: int, fmt: str
) -> int:
    """Print each report as it arrives, in order, then the text summary."""
    tally = dict.fromkeys((oracle.STATUS_PASS, oracle.STATUS_DEGENERATE, oracle.STATUS_FAIL), 0)
    for rep in reports:
        if fmt == "json":
            print(json.dumps(rep.to_json_dict()), flush=True)
        else:
            print(_verify_line(rep), flush=True)
        tally[rep.status] += 1
    passes, degenerate, fails = tally.values()
    if fmt == "text":
        print(
            f"checked {hi - lo + 1} values in {lo}..{hi}: "
            f"{passes} pass, {degenerate} degenerate, {fails} fail"
        )
    return 1 if fails else 0


def _table_row(n: int) -> dict:
    s = spectra.wzd_spectrum_closed_form(n)
    eigs = [e for e, _ in s.items_sorted()]
    mults = [m for _, m in s.items_sorted()]
    return {
        "n": n,
        "vertices": s.order,
        "edges": s.trace() // 2,
        "eigenvalues": eigs,
        "multiplicities": mults,
        "algebraic_connectivity": spectra.algebraic_connectivity(s) if s.order >= 2 else None,
        "spectral_radius": spectra.spectral_radius(s) if s.order >= 1 else None,
    }


def cmd_table(lo: int, hi: int, fmt: str) -> int:
    for n in range(lo, hi + 1):
        row = _table_row(n)
        if fmt == "json":
            print(json.dumps(row))
        else:
            cells = [
                str(row["n"]),
                str(row["vertices"]),
                str(row["edges"]),
                "|".join(str(e) for e in row["eigenvalues"]),
                "|".join(str(m) for m in row["multiplicities"]),
                "" if row["algebraic_connectivity"] is None else str(row["algebraic_connectivity"]),
                "" if row["spectral_radius"] is None else str(row["spectral_radius"]),
            ]
            print(",".join(cells))
    return 0


def _array(value, what: str) -> list:
    """``value``, which must be a JSON array: a string or an object would
    iterate as its characters or its keys."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be an array")
    return value


def _spectrum_pairs(entries, index: int) -> list[tuple]:
    """(eigenvalue, multiplicity) pairs of component ``index``'s spectrum:
    finite numbers, each with an integer multiplicity >= 0."""
    pairs = []
    for item in _array(entries, f"component {index} spectrum entries"):
        e, m = item["eigenvalue"], item["multiplicity"]
        if type(m) is not int or m < 0:
            raise DomainError(
                f"component {index}: multiplicity must be an integer >= 0, got {m!r}"
            )
        # the bound also refuses NaN, and ints that no float holds
        if type(e) not in (int, float) or not abs(e) <= sys.float_info.max:
            raise DomainError(f"component {index}: eigenvalue must be a finite number, got {e!r}")
        pairs.append((e, m))
    return pairs


def _edge_table(entry: dict, order: int, index: int) -> np.ndarray:
    """Component ``index``'s ``edges``, index pairs 0 <= i != j < order, as its
    order x order bool adjacency."""
    table = np.zeros((order, order), dtype=bool)
    for edge in _array(entry["edges"], f"component {index} edges"):
        if not (
            isinstance(edge, list)
            and len(edge) == 2
            and all(type(x) is int and 0 <= x < order for x in edge)
            and edge[0] != edge[1]
        ):
            raise DomainError(f"component {index}: bad edge {edge!r} for order {order}")
        table[edge[0], edge[1]] = table[edge[1], edge[0]] = True
    return table


def _component_from_json(entry, index: int) -> tuple[spectra.SpectrumMultiset, tuple | None]:
    """Component ``index``'s spectrum, and its ``graphcore.join_tokens`` part
    ``(table, weights)``, or None for a spectrum: one token of weight
    ``order`` for a kind, one of weight 1 per vertex for an edge list."""
    if not isinstance(entry, dict):
        raise DomainError(f"component {index} is not an object")
    if sum(key in entry for key in ("spectrum", "kind", "edges")) != 1:
        raise DomainError(f"component {index} needs exactly one of a spectrum, a kind or edges")
    if "spectrum" in entry:
        pairs = _spectrum_pairs(entry["spectrum"]["entries"], index)
        if all(float(e).is_integer() for e, _ in pairs):
            return spectra.SpectrumMultiset.exact((int(e), m) for e, m in pairs), None
        return spectra.SpectrumMultiset.floating(pairs), None
    order, kind = entry.get("order"), entry.get("kind")
    if type(order) is not int or (kind not in ("complete", "empty") and "edges" not in entry):
        raise DomainError(
            f"component {index} needs a spectrum, or a kind or edges with an integer order"
        )
    if kind in ("complete", "empty"):
        # plain lists: no array is made of an order that --check has not bounded
        return spectra.component_spectrum(order, Kind(kind)), ([[kind == "complete"]], [order])
    if order < 1:
        raise DomainError(f"component order must be >= 1, got {order}")
    graphcore.check_graph_order(f"join component {index}", order)
    tokens = _edge_table(entry, order, index), np.ones(order, dtype=np.int64)
    try:
        runs = oracle.twin_quotient(*tokens)[3]
    except OrderCapError as exc:
        raise OrderCapError(f"join component {index}: {exc}") from None
    return spectra.SpectrumMultiset.floating(runs), tokens


def cmd_join(path: str, fmt: str, check: bool) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        host_spec = payload["host"]
        labels = tuple(_array(host_spec["labels"], "host labels"))
        index = {u: i for i, u in enumerate(labels)}
        edges = set()
        for edge in _array(host_spec["edges"], "host edges"):
            if not (isinstance(edge, list) and len(edge) == 2):
                raise DomainError(f"host edge {edge!r} is not a pair of labels")
            i, j = index[edge[0]], index[edge[1]]
            edges.add((i, j) if i < j else (j, i))
        weights = tuple(_array(host_spec["weights"], "host weights"))
        host = spectra.WeightedHostGraph(labels=labels, weights=weights, edges=frozenset(edges))
        components = _array(payload["components"], "components")
        parsed = [_component_from_json(entry, i) for i, entry in enumerate(components)]
        tag = payload.get("n")  # only tags the output
        if tag is not None and (type(tag) is not int or tag < 2):
            raise DomainError(f"n must be absent, null or an integer >= 2, got {tag!r}")
        result = spectra.join_spectrum(host, [spec for spec, _ in parsed], n=tag)
        if check:
            graphcore.check_graph_order("the assembled join", sum(host.weights))
            # join_spectrum has checked each component's order against its
            # host weight, so each part is taken as parsed
            parts = [tokens for _, tokens in parsed]
            if None in parts:
                raise DomainError(
                    f"component {parts.index(None)} has no edge list; cannot assemble the join"
                )
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            OverflowError, DomainError, ContractViolation) as exc:
        print(f"bad join input: {exc}", file=sys.stderr)
        return 2

    check_ok = True
    if check:
        numeric = oracle.twin_quotient(*graphcore.join_tokens(edges, parts))[3]
        check_ok = oracle.eigenvalues_match(numeric, result.items_sorted())

    if fmt == "json":
        print(json.dumps(result.to_json_dict()))
    else:
        sys.stdout.write(_spectrum_text(result))
        if check:
            print(f"check: {'ok' if check_ok else 'MISMATCH'} ({result.order} vertices)")
    if not check_ok:
        print("join check failed: numeric eigenvalues disagree", file=sys.stderr)
        return 1
    return 0


#: exit status when standard output is closed before all of it is written
EXIT_BROKEN_PIPE = 141


def _run(args) -> int:
    try:
        if args.command == "spectrum":
            return cmd_spectrum(args.n, args.format)
        if args.command == "graph":
            return cmd_graph(args.n, args.format, args.classes)
        if args.command == "verify":
            lo, hi = args.range
            return cmd_verify(lo, hi, args.format, args.tol, args.jobs, args.max_order)
        if args.command == "table":
            lo, hi = args.range
            return cmd_table(lo, hi, args.format)
        if args.command == "join":
            return cmd_join(args.file, args.format, args.check)
    except (DomainError, ContractViolation, OrderCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is seen below
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the
        # interpreter's last flush of what is still buffered cannot raise
        # again (the Python signal docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
