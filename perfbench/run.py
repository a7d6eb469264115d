"""qlfun benchmark: seeded workloads, end-to-end metrics, traced layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(``child.py``), started one at a time, because the library's process-wide
caches would otherwise be warm.  With ``--trace 0`` the run starts a few
set-up-only processes, then timed processes while the next one still fits
in ``--seconds``, and reports the end-to-end metrics; pass times are scaled
to a machine of reference speed (``calibrate.py``).  With ``--trace 1`` it
runs one untraced and one traced process and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object.  The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: set-up-only processes per untraced run; set-up time is their median
#: together with the timed processes' own set-up
SETUP_PROBES = 15
#: a run must end well within three minutes, whatever the machine does
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (module, function) pairs reported as .calls and .self_s
LAYER_FUNCTIONS = (
    ("lfun", "H_pq"), ("lfun", "K_partial"), ("lfun", "T_partial"), ("lfun", "l_pq"),
    ("numerics", "binom_rat"), ("numerics", "binom_padic"), ("numerics", "padic_pow"),
    ("numerics", "embed"), ("numerics", "sum_guarded"),
    ("qeuler", "euler_number"), ("qeuler", "euler_poly_frac"),
    ("characters", "chi_eval"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, name in LAYER_FUNCTIONS:
        out.append((f"{module}.{name}.calls", "count"))
        out.append((f"{module}.{name}.self_s", "s"))
    out += [
        ("lfun.H_pq.repeat_share", "ratio"),
        ("lfun.K_partial.repeat_share", "ratio"),
        ("numerics.sum_guarded.terms", "count"),
        ("qeuler.euler_number.hit_ratio", "ratio"),
        ("verify.thm5_lhs_exact.s", "s"),
        ("verify.thm5_rhs.s", "s"),
        ("verify.thm5_report.self_s", "s"),
        ("cli.import_s", "s"),
        ("warm_s", "s"),
        ("op_p50_ms", "ms"),
        ("lfun.l_pq.ms_by_p.3", "ms"),
        ("lfun.l_pq.ms_by_p.5", "ms"),
        ("lfun.l_pq.ms_by_p.7", "ms"),
        ("lfun.l_pq.ms_by_prec.16", "ms"),
        ("lfun.l_pq.ms_by_prec.24", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class RunError(RuntimeError):
    """A child process failed or the run ran out of time."""


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S

    def child(self, mode: str, check: bool = False) -> dict:
        """Start one child, wait for it, and return its report plus its
        set-up time as seen from here (process start to inputs built) and
        its whole wall time."""
        cmd = [sys.executable, str(CHILD), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if check:
            cmd.append("--check")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("run budget exhausted")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} child exceeded the run budget") from None
        if proc.returncode != 0:
            raise RunError(f"{mode} child exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - started
        report["wall_s"] = time.monotonic() - started
        return report


def failures(reference: dict, report: dict) -> tuple:
    """(attempted, failed) for one timed child, against the oracle-checked
    reference child: a result fails when its oracle check failed or when
    it differs from the checked result of the same operation."""
    bad = set(reference["failed"])
    attempted = failed = 0
    passes = [report["hashes"]] + ([report["warm_hashes"]] if "warm_hashes" in report else [])
    for hashes in passes:
        for idx, h in enumerate(hashes):
            attempted += 1
            if idx in bad or h != reference["hashes"][idx]:
                failed += 1
    return attempted, failed


def digest(report: dict) -> str:
    return hashlib.sha256("\n".join(report["hashes"]).encode()).hexdigest()[:16]


def tail(op_ms: list) -> tuple:
    """The highest percentile with at least ten operations beyond it, as
    (percentile, value); None below twenty operations."""
    n = len(op_ms)
    if n < 20:
        return None
    ordered = sorted(op_ms)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """(metrics, notes, attempted, failed) of one end-to-end run."""
    setup = [runner.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    # cold passes in fresh processes while the next one fits in the time
    # left; the first process also checks every result
    children = [runner.child("cold", check=True)]
    while True:
        setup.append(children[-1]["setup_s"])
        if time.monotonic() - runner.started + children[-1]["wall_s"] > seconds:
            break
        children.append(runner.child("cold"))
    reference = children[0]
    attempted = failed = 0
    for report in children:
        a, f = failures(reference, report)
        attempted += a
        failed += f
    # each pass scaled to the reference machine speed (calibrate.py), then
    # the median pass; each operation's median scaled latency over passes
    cold_s = statistics.median(r["cold_scaled_s"] for r in children)
    op_ms = [statistics.median(samples)
             for samples in zip(*(r["op_scaled_ms"] for r in children))]
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_s": cold_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in children),
    }
    notes = [
        f"samples: {len(setup)} set-ups, {len(children)} cold passes of "
        f"{reference['ops']} operations",
        "cold passes, scaled: " + ", ".join(f"{r['cold_scaled_s']:.4g}" for r in children)
        + " s; as measured: " + ", ".join(f"{r['cold_s']:.4g}" for r in children) + " s",
        f"gauge: median {statistics.median(r['gauge_ms'] for r in children):.4g} ms, "
        f"reference {calibrate.REFERENCE_S * 1e3:.4g} ms",
        f"op_p50_ms: {statistics.median(op_ms):.6g} ms (scaled, median over passes)",
    ]
    pct = tail(op_ms)
    if pct is None:
        notes.append(f"op_tail_ms: not reported ({reference['ops']} operations per pass, "
                     "20 needed)")
    else:
        notes.append(f"op_tail_ms: {pct[1]:.6g} ms (p{pct[0]:.1f}, scaled, median over "
                     "passes)")
    notes.append(f"failed_ratio: {failed}/{attempted}")
    notes.append(f"results_digest: {digest(reference)}")
    return metrics, notes, attempted, failed


def l_pq_scaling(report: dict) -> dict:
    """Mean scaled cold milliseconds per l_pq value by p and by precision,
    from the lpq_sweep per-operation timings."""
    groups = {f"lfun.l_pq.ms_by_p.{p}": [] for p in (3, 5, 7)}
    groups.update({f"lfun.l_pq.ms_by_prec.{k}": [] for k in (16, 24)})
    for params, ms in zip(report["params"], report["op_scaled_ms"]):
        groups[f"lfun.l_pq.ms_by_p.{params['p']}"].append(ms)
        groups[f"lfun.l_pq.ms_by_prec.{params['precision']}"].append(ms)
    return {name: statistics.fmean(v) for name, v in groups.items()}


def run_traced(runner: Runner) -> tuple:
    """(metrics, notes, attempted, failed) of one traced run: an untraced
    process with a cold and a warm pass, then a traced cold pass."""
    untraced = runner.child("warm", check=True)
    traced = runner.child("traced")
    trace = traced["trace"]
    rows = trace["rows"]
    metrics = {}
    for module, name in LAYER_FUNCTIONS:
        row = rows.get(f"{module}.{name}", {"calls": 0, "self_s": 0.0})
        metrics[f"{module}.{name}.calls"] = row["calls"]
        metrics[f"{module}.{name}.self_s"] = row["self_s"]
    metrics["lfun.H_pq.repeat_share"] = trace["repeat_share"]["H_pq"]
    metrics["lfun.K_partial.repeat_share"] = trace["repeat_share"]["K_partial"]
    metrics["numerics.sum_guarded.terms"] = trace["series_terms"]
    metrics["qeuler.euler_number.hit_ratio"] = trace["euler_hit_ratio"]
    for name in ("thm5_lhs_exact", "thm5_rhs"):
        metrics[f"verify.{name}.s"] = rows.get(f"verify.{name}", {"s": 0.0})["s"]
    metrics["verify.thm5_report.self_s"] = rows.get("verify.thm5_report",
                                                    {"self_s": 0.0})["self_s"]
    metrics["cli.import_s"] = statistics.median(
        (untraced["import_cli_s"], traced["import_cli_s"]))
    metrics["warm_s"] = untraced["warm_scaled_s"]
    metrics["op_p50_ms"] = statistics.median(untraced["op_scaled_ms"])
    if runner.workload == "lpq_sweep":
        metrics.update(l_pq_scaling(untraced))
    metrics["trace.overhead_ratio"] = traced["cold_scaled_s"] / untraced["cold_scaled_s"]
    metrics = {name: metrics.get(name, 0.0) for name, unit in per_layer_units()}
    attempted, failed = failures(untraced, untraced)
    a, f = failures(untraced, traced)
    notes = [
        f"tracing: {trace['spans']} spans; cold pass {traced['cold_s']:.4g} s traced, "
        f"{untraced['cold_s']:.4g} s untraced, as measured",
        f"euler hit ratio source: {trace['euler_hit_source']}",
        "absent in this library version: " + (", ".join(trace["absent"]) or "none"),
        f"failed_ratio: {failed + f}/{attempted + a}",
        f"results_digest: {digest(untraced)}",
    ]
    return metrics, notes, attempted + a, failed + f


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, notes, attempted, failed = run_traced(runner)
            units = dict(per_layer_units())
        else:
            metrics, notes, attempted, failed = run_untraced(runner, args.seconds)
            units = dict(END_TO_END)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload: {args.workload}, seed {args.seed}; {platform.machine()}, "
          f"{os.cpu_count()} CPUs, Python {platform.python_version()}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
