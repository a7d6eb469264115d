"""One benchmark process: import the library, build a workload's inputs, run
the timed passes, check the results, and print one JSON line.

Run by ``run.py`` in a fresh interpreter for every sample, because the
library keeps process-wide caches that a reused process would have warm:

    python3 perfbench/child.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (stop once the inputs are built), ``cold`` (one cold
pass), ``warm`` (a cold and then a warm pass) or ``traced`` (one cold pass
under the layer tracer).  ``--check`` runs the oracle checks afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: seconds of operations between two gauges of the machine's speed
GAUGE_EVERY_S = 0.25


def _import_library():
    """Import qlfun and qlfun.cli from this checkout; seconds for each."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qlfun
    t1 = time.perf_counter()
    import qlfun.cli  # noqa: F401  (CLI users pay this import on every call)
    t2 = time.perf_counter()
    if SRC.resolve() not in Path(qlfun.__file__).resolve().parents:
        raise SystemExit(f"qlfun was imported from {qlfun.__file__}, not from {SRC}")
    return t1 - t0, t2 - t1


def result_hash(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_pass(tasks, tracer=None):
    """Run every task once; return (per-op ns, per-op scaled ms, gauges in
    seconds, results).  An exception is kept as the operation's result and
    counted as a failure.

    The machine's speed is gauged before the first operation, after the
    last, and between operations once ``GAUGE_EVERY_S`` has passed, outside
    the timed region; an operation's scaled time uses the mean of the two
    gauges around it (see ``calibrate.py``)."""
    results = []
    op_ns = []
    op_gauge = []
    gauges = [calibrate.gauge()]
    last_gauge = time.perf_counter()
    for task in tasks:
        if time.perf_counter() - last_gauge >= GAUGE_EVERY_S:
            gauges.append(calibrate.gauge())
            last_gauge = time.perf_counter()
        op_gauge.append(len(gauges) - 1)
        t0 = time.perf_counter_ns()
        span = tracer.open("op") if tracer is not None else None
        try:
            result = task.run()
        except Exception as exc:  # a failed operation is data, not a crash
            result = exc
        if span is not None:
            tracer.close(span)
        op_ns.append(time.perf_counter_ns() - t0)
        results.append(result)
    gauges.append(calibrate.gauge())
    scaled_ms = [calibrate.scale(ns / 1e6, (gauges[k] + gauges[k + 1]) / 2)
                 for ns, k in zip(op_ns, op_gauge)]
    return op_ns, scaled_ms, gauges, results


def _hashes(tasks, results):
    out = []
    for task, result in zip(tasks, results):
        if isinstance(result, Exception):
            out.append(f"error:{type(result).__name__}")
        else:
            out.append(result_hash(task.canonical(result)))
    return out


def _oracle_failures(tasks, results):
    failed = []
    for idx, (task, result) in enumerate(zip(tasks, results)):
        if isinstance(result, Exception):
            failed.append(idx)
            continue
        try:
            ok = task.check(result)
        except Exception:  # a check that cannot run counts as failed
            ok = False
        if not ok:
            failed.append(idx)
    return failed


def _euler_cache_counts():
    """(hits, misses) of the library's euler-number cache, or None when
    this library version has no such cache."""
    import qlfun.qeuler
    cached = getattr(qlfun.qeuler, "_euler_number_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return info.hits, info.misses


def _trace_report(tracer, cache_before):
    rows = tracer.summary()
    cache_after = _euler_cache_counts()
    if cache_after is not None:
        hits = cache_after[0] - cache_before[0]
        misses = cache_after[1] - cache_before[1]
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        hit_source = "cache_info"
    else:
        hit_ratio = tracer.repeat_share("euler_number")
        hit_source = "argument repeats"
    return {
        "rows": rows,
        "repeat_share": {name: tracer.repeat_share(name) for name in tracer.seen},
        "series_terms": tracer.series_terms,
        "euler_hit_ratio": hit_ratio,
        "euler_hit_source": hit_source,
        "absent": tracer.absent,
        "spans": len(tracer.names),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "warm", "traced"), required=True)
    parser.add_argument("--check", action="store_true",
                        help="run the independent oracle check on every result")
    args = parser.parse_args(argv)

    import_qlfun_s, import_cli_s = _import_library()
    import ops
    import workloads

    tasks = [ops.prepare(args.workload, op) for op in workloads.plan(args.workload, args.seed)]
    ready = time.monotonic()
    out = {"ready": ready, "import_qlfun_s": import_qlfun_s, "import_cli_s": import_cli_s,
           "ops": len(tasks)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    cache_before = _euler_cache_counts()
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        op_ns, scaled_ms, gauges, results = _timed_pass(tasks, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    out["cold_s"] = sum(op_ns) / 1e9
    out["cold_scaled_s"] = sum(scaled_ms) / 1e3
    out["gauge_ms"] = statistics.median(gauges) * 1e3
    out["op_ms"] = [ns / 1e6 for ns in op_ns]
    out["op_scaled_ms"] = scaled_ms
    if args.mode == "warm":
        _, warm_scaled_ms, _, warm_results = _timed_pass(tasks)
        out["warm_scaled_s"] = sum(warm_scaled_ms) / 1e3
        out["warm_hashes"] = _hashes(tasks, warm_results)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["hashes"] = _hashes(tasks, results)
    out["failed"] = _oracle_failures(tasks, results) if args.check else []
    if tracer is not None:
        out["trace"] = _trace_report(tracer, cache_before)
    out["params"] = [{"stratum": t.op.stratum, **{k: str(v) for k, v in t.op.params.items()}}
                     for t in tasks]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
