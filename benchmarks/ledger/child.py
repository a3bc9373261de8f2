"""One ledger job in a fresh interpreter; ``run.py`` starts one per run.

Prints one JSON object as its last line of output: the host-speed probe,
setup and wall time, frames moved, peak RSS, the simulated output with
its fingerprint, and the output checks that failed.  With ``--trace 1``
the job runs under the span tracer and the record adds the per-layer
split and its self-checks.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import time


def probe_host(rounds: int = 9, events: int = 60_000) -> float:
    """Median seconds of a fixed pure-Python event-loop kernel.

    The host's speed drifts by up to a quarter within a minute, and a job
    sees the same drift as this kernel run just before it.  The kernel
    runs before ``repro`` is imported, so the program under test cannot
    change what it measures.
    """
    counts = {}

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        heap = [(i * 7, i, count) for i in range(64)]
        seq = len(heap)
        for _ in range(events):
            t, key, callback = heapq.heappop(heap)
            callback(key % 13)
            seq += 1
            heapq.heappush(heap, (t + key * 2654435761 % 1000 + 1, seq,
                                  callback))
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    probe_s = probe_host()
    t0 = time.perf_counter()
    import repro
    import workloads

    scale = workloads.SCALE if args.scale is None else args.scale
    inputs = workloads.make_inputs(args.workload, args.seed, scale)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.SpanTracer(tracing.WrapperCost.measure())
        tracer.install()
    job = workloads.build(args.workload, inputs)
    t1 = time.perf_counter()
    outcome = job()
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    wall_s = t2 - t1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "repro": repro.__file__,
        "probe_s": probe_s,
        "setup_s": t1 - t0,
        "wall_s": wall_s,
        "frames": outcome.frames,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": workloads.fingerprint(outcome.sim),
        "sim": outcome.sim,
        "failures": workloads.check(args.workload, outcome.sim),
    }
    if tracer is not None:
        summary = tracer.summary()
        record["layers"] = tracing.layer_metrics(summary, outcome.sim)
        record["spans"] = summary["spans"]
        record["failures"] += tracing.self_checks(summary, outcome.sim, wall_s)
        if args.trace_out:
            tracer.write_spans(args.trace_out,
                               f"{args.workload}:{args.seed}")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
