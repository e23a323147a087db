"""The quadsing benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) closed loop, one operation at a time,
for S seconds of whole rounds, checks every output once the loop is over,
and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
Times are wall times scaled to a reference CPU speed (see at_reference_speed).
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the layer
functions are wrapped and the metrics are per-layer self times and counts,
plus the tracing overhead against an untraced child run of the same rounds.
Raw op timings and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OP, Tracer, timed_imports
from workloads import WORKLOADS, child_env, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
PROBE_LOOPS = 20_000
REFERENCE_PROBE_S = 1.5e-3  # the probe on the fast state of the 2 GHz Xeon this was tuned on
MIN_ROUNDS = 2  # cli-cold compares repeated calls within a run
CHILD_TIMEOUT_S = 170

UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "factor_max_bits": "bits",
    "trace_overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the CPU runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(samples) -> list[float]:
    """Scale (seconds, probe) samples to a CPU on which the probe takes REFERENCE_PROBE_S.

    On a shared host the same code runs at two speeds about 1.7x apart,
    switching every fraction of a second to every few tens of seconds as
    other tenants load the machine, and a run may never see the fast one.
    Each timed interval is bracketed by a probe, and its time is scaled by
    REFERENCE_PROBE_S / (the mean of the two probes around it).
    """
    return [seconds * REFERENCE_PROBE_S / p for seconds, p in samples]


def measure_setup() -> list[tuple[float, float]]:
    """(wall time, probe) of fresh interpreters importing quadsing."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quadsing"], cwd=ROOT, env=child_env(ROOT),
                       check=True, timeout=CHILD_TIMEOUT_S)
        samples.append((time.perf_counter() - start, (before + probe()) / 2))
    return samples


def run_rounds(workload, seconds: float, rounds: int | None, tracer=None):
    """Closed loop over whole rounds: for `rounds` rounds, else until `seconds` pass.

    Returns the items, their results, a (wall time, probe) sample per item
    and the size of each round.
    """
    items, results, samples, sizes = [], [], [], []
    start = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (
            r < MIN_ROUNDS or time.perf_counter() - start < seconds):
        batch = workload.round(r)
        for item in batch:
            before = probe()
            span = tracer.begin(OP) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result = workload.run(item)
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.finish(span)
            samples.append((dt, (before + probe()) / 2))
            if span is not None and not workload.in_process:
                workload.adopt_spans(span)
            items.append(item)
            results.append(result)
        sizes.append(len(batch))
        r += 1
    return items, results, samples, sizes


def round_rates(op_seconds, sizes) -> list[float]:
    rates, i = [], 0
    for n in sizes:
        rates.append(n / sum(op_seconds[i: i + n]))
        i += n
    return rates


def judge(workload, items, results) -> tuple[bool, int]:
    """Check every output; only inputs of a known fault may fail."""
    failed, correct, shown = 0, True, 0
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        else:
            try:
                problem = workload.check(item, result)
            except Exception as exc:  # a check that cannot read the output rejects it
                problem = f"check raised {exc!r}"
        if problem is None:
            continue
        failed += 1
        if not item.known_fault:
            correct = False
        if shown < 5:
            tag = "known fault" if item.known_fault else "FAILED"
            print(f"{tag}: {item.label} {item.data.get('src', '')}: {problem}", file=sys.stderr)
            shown += 1
    return correct, failed


def write_raw(name: str, payload: dict) -> None:
    (OUT / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")


def raw_name(args, rounds=None) -> str:
    tail = f"-rounds{rounds}" if rounds is not None else ""
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{tail}"


def plain_run(args, workload_cls) -> dict:
    setup = measure_setup() if args.rounds is None else []
    workload = workload_cls(args.seed, ROOT)
    if workload.in_process:
        import quadsing  # noqa: F401  (its import is setup_s, not an operation)
    items, results, samples, sizes = run_rounds(workload, args.seconds, args.rounds)
    rss = peak_rss_mb(workload)
    correct, failed = judge(workload, items, results)
    scaled = at_reference_speed(setup + samples)
    setup_s, op_seconds = scaled[: len(setup)], scaled[len(setup):]
    rates = round_rates(op_seconds, sizes)
    write_raw(raw_name(args, args.rounds), {
        "labels": [item.label for item in items],
        "wall_seconds": [seconds for seconds, _ in samples],
        "probe_seconds": [p for _, p in samples],
        "op_seconds": op_seconds,
        "round_rates": rates,
    })
    metrics = {
        "items_per_s": statistics.median(rates),
        "item_p50_ms": statistics.median(op_seconds) * 1000.0,
        "peak_rss_mb": rss,
    }
    if setup:
        metrics = {"setup_s": statistics.median(setup_s), **metrics}
    print(f"{args.workload}: {len(sizes)} rounds, {len(items)} ops "
          f"(item_p50_ms over {len(items)} samples), {failed} failed", file=sys.stderr)
    return {"correct": correct, "attempted": len(items), "failed": failed, "metrics": metrics}


def traced_run(args, workload_cls) -> dict:
    tracer = Tracer()
    if workload_cls.in_process:
        timed_imports(tracer)
        tracer.install()
        workload = workload_cls(args.seed, ROOT)
    else:
        workload = workload_cls(args.seed, ROOT, tracer=tracer)
    items, results, samples, sizes = run_rounds(workload, args.seconds / 2, None, tracer)
    tracer.uninstall()
    correct, failed = judge(workload, items, results)
    tracer.dump(OUT / f"{raw_name(args)}-spans.csv")

    # the same rounds, untraced, in a fresh process (sympy's factor cache is per process)
    rounds = len(sizes)
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--rounds", str(rounds)],
        cwd=ROOT, env=child_env(ROOT), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)
    untraced = json.loads((OUT / f"{args.workload}-seed{args.seed}-trace0-rounds{rounds}.json")
                          .read_text(encoding="utf-8"))
    metrics = tracer.layer_metrics()
    traced = sum(at_reference_speed(samples))
    metrics["trace_overhead_pct"] = (traced / sum(untraced["op_seconds"]) - 1) * 100
    print(f"{args.workload}: traced {rounds} rounds, {len(items)} ops, {failed} failed",
          file=sys.stderr)
    return {"correct": correct, "attempted": len(items), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds untraced (the overhead baseline)")
    args = parser.parse_args(argv)

    if not (SRC / "quadsing" / "__init__.py").is_file():
        print(f"error: no quadsing sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    run = traced_run if args.trace else plain_run
    result = run(args, WORKLOADS[args.workload])
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
