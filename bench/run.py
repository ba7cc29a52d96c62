"""Benchmark of quadode: decide -> solve -> evaluate -> lift.

    python3 bench/run.py --workload screen --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing needs installing.  One caller runs the
workload's operations in a closed loop, in whole rounds of the seeded
corpus, until ``--seconds`` have passed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced rounds of the workload
(their difference is the tracing overhead), replays each operation's layer
calls one by one, traces one round of each other workload for the layers
only they reach, and writes every span to ``.bench_out/trace_<workload>.jsonl``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_BUILDS = 5  # set-up is timed at least this many times per run

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import quadode from this checkout's src/, or exit with code 2."""
    init = SRC / "quadode" / "__init__.py"
    if not init.is_file():
        print(f"error: no program source at {init.relative_to(ROOT)}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import quadode

    if Path(quadode.__file__).resolve() != init.resolve():
        print(f"error: quadode imported from {quadode.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)


class Tally:
    """Outcomes of one workload's measured rounds.

    ``times[i]`` holds the latencies of the completed runs of corpus item i.
    Every round runs the same operations, so an operation's latency is the
    median of its repeats: the machine's speed drifts by tens of percent
    over seconds with the load of its other tenants, and the median of many
    repeats spread over the run averages that drift.
    """

    def __init__(self, size: int):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.mismatches = 0
        self.rounds = 0
        self.times: list[list[float]] = [[] for _ in range(size)]

    def latencies(self) -> list[float]:
        return sorted(median(t) for t in self.times if t)


def play_round(wl, corpus, expected, tally: Tally, null, tracer=None) -> None:
    """Run every item of the corpus once.

    ``expected`` holds each item's output from the first round: a later round
    that answers differently counts as a mismatch.  With a tracer, each
    operation is one group span, and its layer calls are replayed afterwards
    outside the timed part.
    """
    for i, item in enumerate(corpus):
        ok = True
        if tracer is not None:
            tracer.op_id = tally.attempted
            t0 = perf_counter()
            try:
                with tracer.group("op." + wl.name):
                    out = wl.run(item, tracer)
            except Exception as exc:  # any failure of the program is counted, not fatal
                ok, out = False, ("failed", type(exc).__name__)
            dt = perf_counter() - t0
        else:
            t0 = perf_counter()
            try:
                out = wl.run(item, null)
            except Exception as exc:  # any failure of the program is counted, not fatal
                ok, out = False, ("failed", type(exc).__name__)
            dt = perf_counter() - t0
        tally.attempted += 1
        if ok:
            tally.times[i].append(dt)
        else:
            tally.failed += 1
            tally.failures[(item.stratum, out[1])] += 1
        if out != expected[i]:
            tally.mismatches += 1
        if ok and tracer is not None:
            with tracer.group("replay." + wl.name):
                wl.replay(item, out, tracer)
    tally.rounds += 1


def first_round(wl, corpus, null) -> tuple[list, list[str]]:
    """Untraced warm-up round: the expected outputs and the check problems."""
    outputs, problems = [], []
    for item in corpus:
        try:
            out = wl.run(item, null)
        except Exception as exc:  # counted in the measured rounds
            outputs.append(("failed", type(exc).__name__))
            continue
        outputs.append(out)
        problems.extend(f"{item.stratum}: {p}" for p in wl.check(item, out))
    return outputs, problems


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def report(correct: bool, tally: Tally, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def describe(name: str, tally: Tally, problems: list[str]) -> None:
    print(
        f"# {name}: {tally.rounds} rounds, {tally.attempted} ops attempted, "
        f"{tally.failed} failed, {tally.mismatches} answered unlike the first round"
    )
    for (stratum, kind), n in sorted(tally.failures.items()):
        print(f"#   failed: {n} x {stratum} ({kind})")
    for p in problems[:20]:
        print(f"#   check: {p}")


def run_untraced(wl, seed: int, seconds: float, null) -> None:
    workdir = OUT_DIR / wl.name
    setup = []

    def build():
        t0 = perf_counter()
        corpus = wl.build(seed, workdir, null)
        setup.append(perf_counter() - t0)
        return corpus

    corpus = build()
    expected, problems = first_round(wl, corpus, null)

    tally = Tally(len(corpus))
    start = perf_counter()
    while True:
        play_round(wl, corpus, expected, tally, null)
        build()  # set-up is timed between rounds, so that it meets the same machine
        if perf_counter() - start >= seconds and len(setup) > MIN_BUILDS:
            break

    lat = tally.latencies()
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": median(lat) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    describe(wl.name, tally, problems)
    print(
        f"#   {len(lat)} operations, each timed by the median of its {tally.rounds} repeats; "
        f"{len(lat) - math.ceil(0.9 * len(lat))} beyond p90; set-up built {len(setup)} times"
    )
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    correct = not problems and tally.mismatches == 0
    report(correct, tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def layer_value(metric: str, tracer, rounds: int):
    """Median self time of the metric's span, or its count per round."""
    if metric.endswith("_us") or metric.endswith("_ms"):
        scale = 1e6 if metric.endswith("_us") else 1e3
        return median(tracer.self_times()[metric[:-3]]) * scale, metric[-2:]
    return tracer.counts[metric] / rounds, "count"


def run_traced(name: str, seed: int, seconds: float, null) -> None:
    from tracing import Tracer, span_table, write_spans
    from workloads import LAYER_METRICS, WORKLOADS

    tracers, metrics, problems = {}, {}, []
    # the named workload first and for the whole run; one round of each other
    for wname in [name, *(w for w in WORKLOADS if w != name)]:
        wl = WORKLOADS[wname]
        tracer = tracers[wname] = Tracer()
        corpus = wl.build(seed, OUT_DIR / wname, tracer)
        expected, found = first_round(wl, corpus, null)
        problems.extend(f"{wname}/{p}" for p in found)
        traced = Tally(len(corpus))
        if wname == name:
            plain = Tally(len(corpus))
            start = perf_counter()
            while True:
                play_round(wl, corpus, expected, plain, null)
                play_round(wl, corpus, expected, traced, null, tracer)
                if perf_counter() - start >= seconds:
                    break
            overhead = 100.0 * (sum(traced.latencies()) / sum(plain.latencies()) - 1.0)
            named = (plain, traced)
            mismatches = plain.mismatches + traced.mismatches
        else:
            play_round(wl, corpus, expected, traced, null, tracer)
            mismatches = traced.mismatches
        if mismatches:
            problems.append(f"{wname}: {mismatches} outputs unlike the first round")
        for metric in LAYER_METRICS[wname]:
            metrics[metric] = layer_value(metric, tracer, traced.rounds)
    metrics["trace.overhead_pct"] = (overhead, "%")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"trace_{name}.jsonl"
    written = write_spans(spans_path, tracers)

    both = Tally(0)
    for t in named:
        both.attempted += t.attempted
        both.failed += t.failed
        both.failures.update(t.failures)
        both.mismatches += t.mismatches
        both.rounds += t.rounds
    describe(name, both, problems)
    print(f"# spans of {name}, by total self time ({written} spans of all workloads "
          f"written to {spans_path.relative_to(ROOT)})")
    print(f"#   {'span':48s} {'n':>7s} {'median self us':>15s} {'total self ms':>14s}")
    for sname, n, med_us, tot_ms in span_table(tracers[name]):
        print(f"#   {sname:48s} {n:7d} {med_us:15.2f} {tot_ms:14.1f}")
    print("# per-layer metrics [the workload they are measured on]")
    owners = {m: w for w, ms in LAYER_METRICS.items() for m in ms}
    owners["trace.overhead_pct"] = name
    for metric, (value, unit) in metrics.items():
        print(f"#   {metric:44s} {value:14.4f} {unit:6s} [{owners[metric]}]")
    print(
        f"# tracing overhead on {name}: traced operations took {overhead:+.2f}% of the time "
        f"of the untraced ones (median of {named[0].rounds} repeats each, rounds alternated)"
    )
    report(not problems, both, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("screen", "grid", "orbits", "lifted"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_program()
    from tracing import NullTracer
    from workloads import WORKLOADS

    null = NullTracer()
    if args.trace:
        run_traced(args.workload, args.seed, args.seconds, null)
    else:
        run_untraced(WORKLOADS[args.workload], args.seed, args.seconds, null)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
