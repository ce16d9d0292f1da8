"""Per-layer tracing for the traced run: wrappers around wzdgraph's public
functions, spans kept in memory, and self times computed from the spans.

Nothing inside wzdgraph is changed.  ``spectra``, ``graphcore`` and ``oracle``
import names with ``from .x import f``, so each wrapper replaces the function
under every name that refers to it in every loaded ``wzdgraph`` module.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

#: (module, function, layer name, what the span counts).  The count is the
#: edge count of a built graph, or the order of the matrix Jacobi was given.
LAYERS = (
    ("numtheory", "factorize", "numtheory.factorize", None),
    ("numtheory", "divisors", "numtheory.divisors", None),
    ("numtheory", "euler_phi", "numtheory.euler_phi", None),
    ("spectra", "wzd_spectrum_closed_form", "spectra.closed_form", None),
    ("graphcore", "build_structural_wzd", "graphcore.build_structural", "edges"),
    ("graphcore", "build_bruteforce_wzd", "graphcore.build_bruteforce", "edges"),
    ("graphcore", "divisor_classes", "graphcore.divisor_classes", None),
    ("graphcore", "export_graph", "graphcore.export_graph", None),
    ("graphcore", "graphs_equal", "graphcore.graphs_equal", None),
    ("oracle", "laplacian_matrix", "oracle.laplacian", None),
    ("oracle", "char_poly_exact", "oracle.char_poly", None),
    ("oracle", "poly_matches_spectrum", "oracle.poly_match", None),
    ("oracle", "symmetric_eigenvalues", "oracle.jacobi", "order"),
    ("cli", "main", "cli", None),
)

#: per-layer metric -> (layer, quantity); quantity is "self_s", "calls" or
#: "count" (the sum of the layer's span counts).
METRICS = {
    "numtheory.factorize.calls": ("numtheory.factorize", "calls"),
    "numtheory.factorize.self_s": ("numtheory.factorize", "self_s"),
    "numtheory.divisors.self_s": ("numtheory.divisors", "self_s"),
    "numtheory.euler_phi.calls": ("numtheory.euler_phi", "calls"),
    "spectra.closed_form.self_s": ("spectra.closed_form", "self_s"),
    "graphcore.build_structural.self_s": ("graphcore.build_structural", "self_s"),
    "graphcore.divisor_classes.calls": ("graphcore.divisor_classes", "calls"),
    "graphcore.export_graph.self_s": ("graphcore.export_graph", "self_s"),
    "graphcore.edges": (("graphcore.build_structural", "graphcore.build_bruteforce"), "count"),
    "graphcore.build_bruteforce.self_s": ("graphcore.build_bruteforce", "self_s"),
    "graphcore.graphs_equal.self_s": ("graphcore.graphs_equal", "self_s"),
    "oracle.laplacian.self_s": ("oracle.laplacian", "self_s"),
    "oracle.char_poly.self_s": ("oracle.char_poly", "self_s"),
    "oracle.char_poly.calls": ("oracle.char_poly", "calls"),
    "oracle.poly_match.self_s": ("oracle.poly_match", "self_s"),
    "oracle.jacobi.self_s": ("oracle.jacobi", "self_s"),
    "oracle.jacobi.order_sum": ("oracle.jacobi", "count"),
    "cli.self_s": ("cli", "self_s"),
}


def _edges(args, result) -> int:
    return result.edge_count


def _order(args, result) -> int:
    m = args[0]
    return m.order if hasattr(m, "order") else len(m)


_COUNTERS = {"edges": _edges, "order": _order, None: None}


class Tracer:
    """Spans of one traced run.

    A span is ``(round, op, span_id, parent_id, layer, start, end, count)``;
    ``parent_id`` is -1 for a span no other wrapped call encloses.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.round = 0
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, layer: str, fn, counter):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                count = counter(args, result) if counter and result is not None else 0
                self.spans.append((self.round, self.op, sid, parent, layer, start, end, count))

        return traced

    def install(self) -> None:
        """Replace every reference to each traced function in loaded wzdgraph modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wzdgraph" or name.startswith("wzdgraph."))]
        for mod_name, fn_name, layer, counter in LAYERS:
            original = getattr(sys.modules[f"wzdgraph.{mod_name}"], fn_name)
            traced = self._wrap(layer, original, _COUNTERS[counter])
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round,op,span,parent,layer,start,end,count\n")
            for s in self.spans:
                fh.write(",".join(map(str, s[:5])) + f",{s[5]:.9f},{s[6]:.9f},{s[7]}\n")


def per_round_totals(spans) -> dict[int, dict[str, dict[str, float]]]:
    """round -> layer -> {"self_s", "calls", "count"}.

    A span's self time is its duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[6] - s[5])
    out: dict[int, dict[str, dict[str, float]]] = {}
    for rnd, _op, sid, _parent, layer, start, end, count in spans:
        acc = out.setdefault(rnd, {}).setdefault(layer, {"self_s": 0.0, "calls": 0, "count": 0})
        acc["self_s"] += (end - start) - child_time.get(sid, 0.0)
        acc["calls"] += 1
        acc["count"] += count
    return out


def layer_metrics(spans, scale: list[float]) -> dict[str, float]:
    """Each per-layer time as its median over rounds of the per-round total,
    multiplied by that round's ``scale``; each count as its per-round total."""
    totals = per_round_totals(spans)
    out = {}
    for metric, (layers, quantity) in METRICS.items():
        if isinstance(layers, str):
            layers = (layers,)
        per_round = [
            sum(totals.get(r, {}).get(layer, {}).get(quantity, 0) for layer in layers)
            for r in range(len(scale))
        ]
        if quantity == "self_s":
            out[metric] = statistics.median(t * k for t, k in zip(per_round, scale))
        else:
            out[metric] = per_round[0]  # counts repeat exactly from round to round
    return out
