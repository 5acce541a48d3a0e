#!/usr/bin/env python3
"""Benchmark of unicipher: round trips, noisy-channel repair and key search.

Usage (from the repository root):

    python3 perfbench/run.py --workload roundtrip_n10 --seed 1 --seconds 10 --trace 0

Runs one workload of ``workloads.WORKLOADS`` in this process, on inputs drawn
from ``--seed``, against the library in ``src/``.  Set-up (importing the
library, parsing the workload's canonical key JSON, building each coding
matrix) is repeated and its median reported as ``setup_s``; the timed loop
then makes whole passes over the corpus for ``--seconds``, checking every
output.  Times are reported in reference time (see ``speed.py``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` untraced and
traced passes alternate; the JSON carries the per-layer metrics, each per
pass over the corpus (per set-up for the two set-up spans), plus the tracing
overhead, and the spans are written to ``.bench_traces/``.  The lines before
the JSON are a readable report; ``perfbench/README.md`` explains it all.
Exit status: 0 when every check passed, 1 when a round trip, an exact repair
or an attack count came out wrong, 2 when the library or ``BENCHMARK.json``
is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import Gauge
from tracing import NullTracer, Tracer, totals, write_spans
from workloads import CLASSES, WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
# Each operation's latency is its mean over the passes, which averages out
# the short bursts of machine noise any single pass catches.
MIN_PASSES = 3


def find_library() -> bool:
    """Put the repository's ``src/`` on the import path, if the sources are there."""
    src = ROOT / "src"
    if not (src / "unicipher" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def import_library(*submodules: str):
    """Import ``unicipher`` afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "unicipher" or m.startswith("unicipher.")]:
        del sys.modules[name]
    lib = importlib.import_module("unicipher")
    for sub in submodules:
        importlib.import_module(f"unicipher.{sub}")
    return lib


class Window:
    """What the passes run with one tracer did, and how long they took.

    ``elapsed`` is wall time, ``scaled`` the same in reference time.
    """

    def __init__(self, tracer):
        self.tracer, self.tally, self.passes = tracer, Tally(), 0
        self.elapsed = self.scaled = 0.0


def run_pass(workload, state, units, window: Window, gauge: Gauge) -> None:
    """Run every unit once, in order; probes fall between units, untimed."""
    tr, tally = window.tracer, window.tally
    for index, unit in enumerate(units):
        tally.scale = gauge.refresh()
        tr.op = index
        start = perf_counter()
        tr.call(workload.op_name, workload.run_unit, state, index, unit, tr, tally)
        wall = perf_counter() - start
        window.elapsed += wall
        window.scaled += wall * tally.scale
    window.passes += 1


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, or 0 when there are too few samples to cut."""
    if len(samples) < 2:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(workload, window: Window, setup_s: list[float]) -> dict:
    """The end-to-end metrics, plus the workload's own readable figures."""
    counts, ops = window.tally.counts, window.tally.counts["ops"]
    typical = [statistics.fmean(times) for times in window.tally.samples.values()]
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_s": (ops / window.scaled, "1/s"),
        "latency_p50_ms": (quantile(typical, 50) * 1e3, "ms"),
        "latency_p99_ms": (quantile(typical, 99) * 1e3, "ms"),
        "recovered_frac": (counts["exact"] / ops, "ratio"),
        "error_rate": (counts["failed"] / ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    values.update(workload.summary(window.tally, window.scaled))
    values["wall_ops_s"] = (ops / window.elapsed, "1/s")
    values["speed_scale"] = (window.scaled / window.elapsed, "ratio")
    return values


def per_layer(corpus, traced: Window, untraced: Window, phases: dict, scales: dict) -> dict:
    """Per-pass layer metrics from the traced passes' counts and spans.

    Span times are converted to reference time with each phase's mean scale.
    """
    counts, passes = traced.tally.counts, traced.passes
    values = {k: v / passes for k, v in counts.items() if "." in k}
    per_pass = scales["loop"] / passes
    inclusive, by_module = totals(phases["loop"])
    values.update({f"{name}.s": secs * per_pass for name, secs in inclusive.items()})
    values.update({f"{module}.self_s": secs * per_pass for module, secs in by_module.items()})
    for name, start, end, _, op in phases["loop"]:
        if name == "correction.correct":
            key = f"correction.correct.s.{corpus.block_class[op]}"
            values[key] = values.get(key, 0.0) + (end - start) * per_pass
    setup_inclusive, _ = totals(phases["setup"])
    for name in ("channel.loads_key", "matrix.build_coding_matrix"):
        values[f"{name}.s"] = setup_inclusive.get(name, 0.0) * scales["setup"] / SETUP_REPEATS
    generate_inclusive, _ = totals(phases["generate"])
    values["channel.corrupt_packages.s"] = (
        generate_inclusive.get("channel.corrupt_packages", 0.0) * scales["generate"]
    )

    exact = sum(counts[f"correction.exact.{c}"] for c in CLASSES)
    candidates = sum(counts[f"correction.candidates.{c}"] for c in CLASSES)
    values["correction.useful_per_candidate"] = exact / candidates if candidates else 0.0
    plain = counts["plain_bytes"]
    values["channel.wire_ratio"] = counts["channel.wire_bytes"] / plain if plain else 0.0
    values["error_rate"] = counts["failed"] / counts["ops"]
    traced_pass = traced.scaled / passes
    untraced_pass = untraced.scaled / untraced.passes
    values["tracing.overhead_frac"] = traced_pass / untraced_pass - 1
    values["tracing.overhead_ms"] = (traced_pass - untraced_pass) / (counts["ops"] / passes) * 1e3
    return values


def run(workload, seed: int, seconds: float, trace: bool, spec: dict, trace_path=None) -> dict:
    """Run one workload; return the result object and the report lines."""
    rng = random.Random(seed)
    make = Tracer if trace else NullTracer
    generate_tr, setup_tr, loop_tr = make(), make(), make()
    gauge = Gauge()
    generate_scale = gauge.refresh(force=True)
    corpus = workload.make_corpus(import_library("channel", "sampling"), rng, generate_tr)
    setup_s, setup_scales = [], []
    for _ in range(SETUP_REPEATS):
        setup_scales.append(gauge.refresh(force=True))
        start = perf_counter()
        state = workload.setup(import_library("channel"), corpus, setup_tr)
        setup_s.append((perf_counter() - start) * setup_scales[-1])

    # Whole passes over the corpus until the time is up.  Traced runs
    # alternate untraced and traced passes, so both see the same warm-up and
    # the same machine load.
    untraced, traced = Window(NullTracer()), Window(loop_tr)
    deadline = perf_counter() + seconds
    if not trace:
        while untraced.passes < MIN_PASSES or perf_counter() < deadline:
            run_pass(workload, state, corpus.units, untraced, gauge)
        report = end_to_end(workload, untraced, setup_s)
        wanted, windows = spec["end_to_end"], [untraced]
    else:
        while not traced.passes or perf_counter() < deadline:
            run_pass(workload, state, corpus.units, untraced, gauge)
            run_pass(workload, state, corpus.units, traced, gauge)
        phases = {"generate": generate_tr.spans, "setup": setup_tr.spans, "loop": loop_tr.spans}
        scales = {
            "generate": generate_scale,
            "setup": statistics.mean(setup_scales),
            "loop": traced.scaled / traced.elapsed,
        }
        values = per_layer(corpus, traced, untraced, phases, scales)
        wanted, windows = spec["per_layer"], [untraced, traced]
        report = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in wanted}
        if trace_path is not None:
            write_spans(trace_path, phases)

    tallies = [w.tally for w in windows]
    attempted = sum(t.counts["ops"] for t in tallies)
    failed = sum(t.counts["failed"] for t in tallies)
    fatal = sum(t.counts["fatal"] for t in tallies)
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in wanted}
    lines = [
        f"{attempted} operations over {sum(w.passes for w in windows)} whole pass(es) "
        f"of {len(corpus.units)} units; {failed} failed"
        + (f", {fatal} of them failing the run" if fatal else "")
        + "".join(f"; {k} = {v}" for k, v in corpus.facts.items()),
    ]
    lines += [f"  {name:40s} {value:.6g} {unit}" for name, (value, unit) in report.items()]
    lines += [f"  problem: {p}" for p in tallies[-1].problems]
    return {
        "result": {"correct": fatal == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not find_library() or not spec_path.is_file():
        print(f"error: no unicipher sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec,
              trace_path if args.trace else None)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(out["lines"]))
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
