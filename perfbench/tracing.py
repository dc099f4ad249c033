"""Traced rounds: wrappers on the library's public functions, from outside.

The program is not changed.  A ``Tracer`` replaces a function on the object
where its caller looks it up (``conemaps`` imports its kernels by name, so
``int_matmax`` is wrapped as ``obstructor.conemaps.int_matmax``), and puts
the original back afterwards.  Calls are aggregated per (parent span, span):
call count, total time and self time, which is the total less the time of
wrapped calls made inside it.  Hot kernels run millions of times a round, so
no per-call record is kept.
"""

from __future__ import annotations

from time import perf_counter

ROOT = "round"

# span name -> [(attribute path from the library namespace, attribute), ...]
SPANS: dict[str, list[tuple[str, str]]] = {
    "rootsystems.build_root_system": [("rootsystems", "build_root_system"), ("catalog", "build_root_system")],
    "ordering.exhaustive_verify": [("ordering", "exhaustive_verify")],
    "ordering.verify_witness": [("ordering", "verify_witness")],
    "catalog.identity_check": [("catalog", "identity_check")],
    "cli.main": [("cli", "main")],
    "complexes.simplices": [("complexes.SimplicialComplex", "simplices")],
    "complexes.betti_numbers": [("complexes", "betti_numbers")],
    "complexes.exact_rank": [("complexes", "exact_rank")],
    "complexes.is_acyclic": [("complexes", "is_acyclic"), ("conemaps", "is_acyclic")],
    "exact.int_matmax": [("conemaps", "int_matmax")],
    "exact.int_adjugate": [("conemaps", "int_adjugate")],
    "exact.int_matmul": [("conemaps", "int_matmul")],
    "conemaps.ConeMap.scaled": [("conemaps.ConeMap", "scaled")],
    "conemaps.divergence_suite": [("conemaps", "divergence_suite")],
    "conemaps.properness_test": [("conemaps", "properness_test")],
}

# per-layer metric -> (unit, source, names): the summed self time or call
# count of the named spans, or a counter kept by the Tracer
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "rootsystems.build_s": ("s", "self", ("rootsystems.build_root_system",)),
    "rootsystems.builds": ("count", "calls", ("rootsystems.build_root_system",)),
    "ordering.verify_s": ("s", "self", ("ordering.exhaustive_verify",)),
    "ordering.witness_check_s": ("s", "self", ("ordering.verify_witness",)),
    "ordering.witness_checks": ("count", "calls", ("ordering.verify_witness",)),
    "ordering.labelings": ("count", "counter", ("labelings",)),
    "catalog.identity_s": ("s", "self", ("catalog.identity_check",)),
    "catalog.identity_checks": ("count", "calls", ("catalog.identity_check",)),
    "cli.self_s": ("s", "self", ("cli.main",)),
    "complexes.closure_s": ("s", "self", ("complexes.simplices",)),
    "complexes.betti_self_s": ("s", "self", ("complexes.betti_numbers",)),
    "complexes.rank_s": ("s", "self", ("complexes.exact_rank",)),
    "complexes.rank_calls": ("count", "calls", ("complexes.exact_rank",)),
    "complexes.rank_cells": ("count", "counter", ("rank_cells",)),
    "complexes.rank_nonzeros": ("count", "counter", ("rank_nonzeros",)),
    "complexes.acyclic_s": ("s", "self", ("complexes.is_acyclic",)),
    "complexes.acyclic_calls": ("count", "calls", ("complexes.is_acyclic",)),
    "exact.matmax_s": ("s", "self", ("exact.int_matmax",)),
    "exact.matmax_calls": ("count", "calls", ("exact.int_matmax",)),
    "exact.stat_bits_max": ("bits", "counter", ("stat_bits_max",)),
    "exact.adjugate_s": ("s", "self", ("exact.int_adjugate",)),
    "exact.adjugate_calls": ("count", "calls", ("exact.int_adjugate",)),
    "exact.matmul_calls": ("count", "calls", ("exact.int_matmul",)),
    "conemaps.scaled_s": ("s", "self", ("conemaps.ConeMap.scaled",)),
    "conemaps.scaled_calls": ("count", "calls", ("conemaps.ConeMap.scaled",)),
    "conemaps.scaled_simplices": ("count", "counter", ("scaled_simplices",)),
    "conemaps.scaled_per_simplex": ("calls/simplex", "counter", ("scaled_per_simplex",)),
    "conemaps.suite_self_s": ("s", "self", ("conemaps.divergence_suite", "conemaps.properness_test")),
    "conemaps.pairs": ("count", "counter", ("pairs",)),
    "conemaps.rays": ("count", "counter", ("rays",)),
}


def _resolve(lib, path: str):
    module, _, rest = path.partition(".")
    obj = getattr(lib, module)
    return getattr(obj, rest) if rest else obj


class Tracer:
    """Spans and counters for one traced round."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (parent, span) -> [calls, total_s, self_s]
        self.counters = {"labelings": 0, "rank_cells": 0, "rank_nonzeros": 0,
                         "stat_bits_max": 0, "pairs": 0, "rays": 0}
        self.simplices: set = set()
        self._stack = [[ROOT, 0.0]]
        self._undo: list = []

    # -- installing ---------------------------------------------------------

    def install(self, lib) -> None:
        after = {
            "ordering.exhaustive_verify": self._count_labelings,
            "complexes.exact_rank": self._count_rank,
            "exact.int_matmax": self._count_bits,
            "conemaps.ConeMap.scaled": self._count_simplex,
            "conemaps.divergence_suite": self._count_suite,
            "conemaps.properness_test": self._count_suite,
        }
        for span, targets in SPANS.items():
            for path, attr in targets:
                owner = _resolve(lib, path)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(span, original, after.get(span)))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, after):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                rec = spans.get((parent[0], name))
                if rec is None:
                    rec = spans[parent[0], name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(result, args)
            return result

        return traced

    def round(self, fn):
        """Run one round under the root span; return its result and duration."""
        t0 = perf_counter()
        result = fn()
        dt = perf_counter() - t0
        self.spans[("", ROOT)] = [1, dt, dt - self._stack[0][1]]
        return result, dt

    # -- counters -----------------------------------------------------------

    def _count_labelings(self, report, args):
        self.counters["labelings"] += report.labelings_checked

    def _count_rank(self, rank, args):
        rows = args[0]
        if rows and rows[0]:
            self.counters["rank_cells"] += len(rows) * len(rows[0])
            self.counters["rank_nonzeros"] += sum(1 for row in rows for x in row if x)

    def _count_bits(self, stat, args):
        bits = stat.bit_length()
        if bits > self.counters["stat_bits_max"]:
            self.counters["stat_bits_max"] = bits

    def _count_simplex(self, result, args):
        cone_map, simplex = args[0], args[1]
        self.simplices.add((cone_map.name, tuple(simplex)))

    def _count_suite(self, report, args):
        self.counters["pairs" if report.kind == "divergence" else "rays"] += report.total

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name, summed over parents: (calls, total_s, self_s)."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, self_s) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        counters = dict(self.counters)
        counters["scaled_simplices"] = len(self.simplices)
        scaled_calls = totals.get("conemaps.ConeMap.scaled", (0, 0.0, 0.0))[0]
        counters["scaled_per_simplex"] = scaled_calls / len(self.simplices) if self.simplices else 0.0
        out = {}
        for metric, (_, kind, names) in LAYER_METRICS.items():
            if kind == "counter":
                out[metric] = counters[names[0]]
            else:
                col = 0 if kind == "calls" else 2
                out[metric] = sum(totals.get(n, (0, 0.0, 0.0))[col] for n in names)
        return out

    def span_lines(self) -> list[dict]:
        return [
            {"parent": parent, "span": name, "calls": calls, "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(self.spans.items())
        ]
