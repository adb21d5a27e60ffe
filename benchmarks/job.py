"""One benchmark job in a fresh interpreter.

    python3 benchmarks/job.py import
    python3 benchmarks/job.py run WORKLOAD SEED TRACE EXPECTED_JSON [SPANS_JSON]

`import` only times the set-up every CLI call pays: importing `galledtrees`
and its CLI module (which pulls in `golden`).  `run` times the import, then the
workload job (caches cold, traced when TRACE is 1), then checks the job's
outputs against EXPECTED_JSON outside the timed region.  The last stdout line
is a JSON object with the timings, the peak resident memory, the check
results and, when traced, the per-layer counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import galledtrees.cli  # noqa: F401  (the set-up being timed)

    import_s = time.perf_counter() - t0
    if argv[0] == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    workload, seed, trace, expected_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    import tracer as tracing
    import workloads

    with open(expected_path) as fh:
        expected = json.load(fh)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        before = tracing.cache_sizes()
        t1 = time.perf_counter()
        outputs = tracer.span(tracing.BENCH, workloads.run, (workload, seed))
        wall_s = time.perf_counter() - t1
        after = tracing.cache_sizes()
        counters = tracer.snapshot()
        tracer.uninstall()
    else:
        t1 = time.perf_counter()
        outputs = workloads.run(workload, seed)
        wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = workloads.check(workload, outputs, expected, seed)
    report = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": len(results),
        "failures": [name for name, ok in results if not ok],
    }
    if tracer is not None:
        counters["growth"] = {k: after[k] - before[k] for k in after}
        report["trace"] = counters
        if len(argv) > 5:
            tracer.write_spans(argv[5])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
