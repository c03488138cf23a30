"""freecurve benchmark: one workload, one process, one item at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

A closed loop with a single client: the next item starts when the previous
one has been timed and checked.  No threads, no worker pools.  With
``--trace 0`` the run attempts items for ``--seconds`` (always at least the
workload's first block) and reports the end-to-end metrics; with
``--trace 1`` it runs each item of the first block traced and then
untraced, in passes for as long as the seconds allow, and reports the
per-layer metrics.  The last line of standard output is the result; the
line before it holds diagnostics (failure causes, output digest,
reference-loop times).  README.md in this directory defines the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
                    "item_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {f"{name}.{m}": spans.UNITS[m]
                   for name, measures in spans.LAYERS.items() for m in measures}
PER_LAYER_UNITS["trace.overhead_share"] = "share"


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Set-up times of fresh interpreters: start, imports, input generation."""
    out = []
    for _ in range(probes):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(start)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def digest(outcomes: list[measure.Outcome]) -> str:
    """sha256 over the canonical JSON of each item's verified results."""
    h = hashlib.sha256()
    for o in outcomes:
        for text in (o.texts if o.verified else [f"failed: {o.failure}"]):
            h.update(text.encode())
            h.update(b"\n")
    return h.hexdigest()


def end_to_end(workload, items, seconds: float):
    """Items for ``seconds``, at least the first block; the item metrics."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < workload.block or time.perf_counter() < deadline:
        outcome = measure.attempt(workload, items[len(outcomes) % len(items)])
        if len(outcomes) >= workload.block:
            outcome.texts = []      # only the first block is digested
        outcomes.append(outcome)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, facts = measure.summarize(outcomes, peak_mb,
                                       measure.memory_ceiling_mb())
    return outcomes, metrics, facts


def per_layer(workload, items, seconds: float):
    """Passes over the first block, each item traced and then untraced.

    An item outside the block runs first, untimed, so that lazy set-up in
    the library does not land in the first pass.  Counts come from
    the first pass and must repeat in later ones; times are means over the
    passes.  The overhead compares traced with untraced time of the same
    items, run back to back so that host drift touches both alike.
    """
    block = items[:workload.block]
    measure.attempt(workload, items[workload.block])
    start = time.perf_counter()
    outcomes, passes, absent = [], [], set()
    traced_s = untraced_s = 0.0
    while True:
        pass_start = time.perf_counter()
        tracer = spans.Tracer()
        traced, untraced = [], []
        for it in block:
            with tracer.installed():
                traced.append(measure.attempt(workload, it, tracer))
            untraced.append(measure.attempt(workload, it))
        traced_s += sum(o.seconds for o in traced)
        untraced_s += sum(o.seconds for o in untraced)
        outcomes += traced + untraced
        passes.append(tracer.layer_metrics())
        absent |= tracer.absent
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    counts = [m for m in passes[0] if m.rsplit(".", 1)[1] in spans.COUNTS]
    metrics = {m: (passes[0][m] if m in counts
                   else statistics.fmean(p[m] for p in passes))
               for m in passes[0]}
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1
    facts = {
        "traced_passes": len(passes),
        "counts_repeat": all(p[m] == passes[0][m] for p in passes for m in counts),
        "absent": sorted(m for m in metrics
                         if m in absent or m.rsplit(".", 1)[0] in absent),
    }
    return outcomes, metrics, facts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workload.make_items(args.seed)
    # set-up samples on both sides of the run meet more of the host's states
    setup = [] if args.trace else setup_seconds(args.workload, args.seed,
                                                SETUP_PROBES // 2)
    ref_before = measure.ref_loop_s()
    run = per_layer if args.trace else end_to_end
    outcomes, metrics, facts = run(workload, items, args.seconds)
    ref_after = measure.ref_loop_s()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        setup += setup_seconds(args.workload, args.seed,
                               SETUP_PROBES - SETUP_PROBES // 2)
        facts["setup_samples_s"] = setup
        metrics["setup_s"] = statistics.median(setup)

    # both kinds of run start with the first block, untraced or traced
    first_block = outcomes[:workload.block]
    failures: dict[str, int] = {}
    for o in outcomes:
        if not o.verified:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failures": failures,
        "output_digest": digest(first_block),
        "digest_items": len(first_block),
        "host.ref_loop_s": {"before": ref_before, "after": ref_after, "unit": "s"},
        **facts,
    }
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.verified for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
