"""Time to a certified answer for the obstructor library, one workload per run.

    python3 perfbench/run.py --workload diverge --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  A run
sets up SETUPS times (fresh import plus inputs) and reports the median as
``setup_s``.  It then repeats whole rounds of the workload while another
round still fits in ``--seconds`` (at least one) and reports the median
round as ``wall_s``, with the process's peak resident memory.  Every round
checks each output against the independent answers in ``oracles``.
``--seed`` is the sampling seed of the divergence suites; the inputs of the
other workloads do not depend on it (see workloads.py).

With ``--trace 1`` it alternates untraced and traced rounds instead and
reports the per-layer metrics of ``tracing.LAYER_METRICS`` per round, plus a
summary with the tracing overhead.  The last line of standard output is
always one JSON object: correct, attempted, failed and metrics.  The same
object, with round times and the trace, is written under perfbench/results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUPS = 7
LAYERS = ("rootsystems", "ordering", "complexes", "exact", "conemaps", "catalog", "cli")

sys.path.insert(0, str(HERE))

from oracles import Tally  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Library:
    """The library's modules, imported afresh (the import is part of set-up)."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "obstructor" or m.startswith("obstructor.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"obstructor.{layer}"))


def set_up(workload, seed):
    """SETUPS fresh set-ups; returns the last library and inputs, and the times."""
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        lib = Library()
        inputs = workload.setup(lib, seed)
        times.append(perf_counter() - t0)
    return lib, inputs, times


def measure(run_round, seconds: float, tally: Tally) -> list[float]:
    """Whole rounds while another (of median length) fits; at least one."""
    start = perf_counter()
    rounds: list[float] = []
    while True:
        t0 = perf_counter()
        result = run_round()
        rounds.append(perf_counter() - t0)
        tally.absorb(result)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            return rounds


def measure_traced(lib, run_round, seconds: float, tally: Tally):
    """Alternate untraced and traced rounds; returns both times and the tracers."""
    start = perf_counter()
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    while True:
        t0 = perf_counter()
        tally.absorb(run_round())
        plain.append(perf_counter() - t0)
        tracer = Tracer()
        tracer.install(lib)
        try:
            result, dt = tracer.round(run_round)
        finally:
            tracer.uninstall()
        tally.absorb(result)
        traced.append(dt)
        tracers.append(tracer)
        pair = statistics.median(plain) + statistics.median(traced)
        if perf_counter() - start + pair > seconds:
            return plain, traced, tracers


def per_round(tracers: list[Tracer], tally: Tally) -> dict[str, float]:
    """Per-layer metrics of one round: medians of times, counts that must agree."""
    per = [t.layer_metrics() for t in tracers]
    out = {}
    for name, (unit, *_) in LAYER_METRICS.items():
        values = [m[name] for m in per]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            tally.require(len(set(values)) == 1, f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
    return out


def summary_lines(layers: dict[str, float], plain: list[float], traced: list[float]) -> list[str]:
    wall = statistics.median(plain)
    twall = statistics.median(traced)
    lines = [f"{'per-layer metric':32} {'value':>14}  unit"]
    for name, (unit, *_) in LAYER_METRICS.items():
        value = layers[name]
        share = f"  ({100 * value / twall:5.1f}% of traced round)" if unit == "s" else ""
        lines.append(f"{name:32} {value:>14.6g}  {unit}{share}")
    overhead = twall - wall
    lines.append(
        f"tracing overhead: {overhead:.3f} s per round ({100 * overhead / wall:.1f}%): "
        f"traced {twall:.3f} s vs untraced {wall:.3f} s, medians of {len(traced)} and {len(plain)}"
    )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="sampling seed of divergence_suite")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "obstructor" / "__init__.py").is_file():
        print(f"error: the library's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    expected = workload.expect()
    lib, inputs, setups = set_up(workload, args.seed)
    tally = Tally()

    def run_round():
        return workload.run(lib, inputs, expected)

    record: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setups}
    trace_lines: list[dict] = []
    if args.trace:
        plain, traced, tracers = measure_traced(lib, run_round, args.seconds, tally)
        layers = per_round(tracers, tally)
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, *_) in LAYER_METRICS.items()}
        lines = summary_lines(layers, plain, traced)
        overhead = statistics.median(traced) - statistics.median(plain)
        record.update(rounds_s=plain, traced_rounds_s=traced, overhead_s=overhead)
        for i, tracer in enumerate(tracers):
            trace_lines += [{"round": i, **line} for line in tracer.span_lines()]
        trace_lines += [{"metric": name, **m} for name, m in metrics.items()]
        trace_lines.append({"overhead_s": overhead, "untraced_s": plain, "traced_s": traced})
    else:
        rounds = measure(run_round, args.seconds, tally)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
        lines = [f"{name:14} {m['value']:>12.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"rounds: {len(rounds)}, setups: {len(setups)}")
        record["rounds_s"] = rounds

    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record.update(result, notes=tally.notes)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace_lines:
        (RESULTS / f"{stem}.jsonl").write_text("".join(json.dumps(x) + "\n" for x in trace_lines))
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
