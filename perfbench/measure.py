"""Measurement process: drives ``spinstar.cli.main`` in-process.

One client runs a workload's calls back to back (a closed loop), each
into a fresh output directory, and repeats whole passes while another
pass still fits into ``--seconds``.  After every call, outside the timed
region, the call's outputs are checked.  With ``--trace 1`` the same
passes run again under the span tracer, which gives the per-layer
numbers and the tracing overhead.

Run by ``run.py``, which pins the BLAS thread count and puts the
checkout's ``src`` on ``PYTHONPATH``; the result goes to ``--result`` as
JSON.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np
import scipy

import checks
import spinstar.cli
import tracer as tracing
from workloads import WORKLOADS

WARMUP_ARGV = ("scan", "--m", "3", "--samples", "201")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def tail_latency(latencies) -> tuple[float, float, int] | None:
    """(percentile, value, calls) of the highest percentile with at least
    ten calls above it, or None when there are too few calls."""
    ordered = sorted(latencies)
    k = len(ordered) - 10      # calls at or below the reported one
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1], len(ordered)


def check_call(call, outdir: str) -> tuple[list[str], object]:
    """Run a call's checks; returns (failures, resolved jobs value)."""
    try:
        failures, config = checks.check_manifest(outdir)
        failures += call.check(outdir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"], None
    return failures, config.get("jobs")


def run_passes(workload: str, seed: int, seconds: float, workdir: str,
               tracer=None, tiny: bool = False) -> dict:
    """Closed loop over whole passes; returns per-call and per-pass records."""
    calls, passes, messages, jobs = [], [], [], set()
    pass_index = 0
    while True:
        wall = cpu = 0.0
        scans = 0
        for call in WORKLOADS[workload](seed, pass_index, tiny):
            outdir = tempfile.mkdtemp(prefix="call-", dir=workdir)
            argv = [*call.argv, "--outdir", outdir]
            scope = tracer.call(len(calls)) if tracer else contextlib.nullcontext()
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                with scope:
                    rc = spinstar.cli.main(argv)
            except Exception:   # a crash is a failed call, not a failed run
                traceback.print_exc()
                rc = None
            latency = time.perf_counter() - t0
            cpu += _cpu_seconds() - cpu0
            if rc == 0:
                failures, resolved_jobs = check_call(call, outdir)
                if resolved_jobs is not None:
                    jobs.add(resolved_jobs)
            else:
                failures = [f"exit code {rc}"]
            shutil.rmtree(outdir, ignore_errors=True)
            messages += [f"{' '.join(call.argv)}: {f}" for f in failures]
            calls.append({"latency_s": latency, "failed": bool(failures)})
            wall += latency
            scans += call.scans
        passes.append({"wall_s": wall, "cpu_s": cpu, "scans": scans})
        pass_index += 1
        elapsed = sum(p["wall_s"] for p in passes)
        if elapsed + elapsed / len(passes) > seconds:
            return {"calls": calls, "passes": passes, "failures": messages,
                    "jobs": sorted(jobs)}


def end_to_end(run: dict) -> dict:
    latencies = [c["latency_s"] for c in run["calls"]]
    walls = [p["wall_s"] for p in run["passes"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "scans_per_s": (sum(p["scans"] for p in run["passes"]) / sum(walls), "1/s"),
        "call_p50_s": (statistics.median(latencies), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in run["passes"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


# -- per-layer numbers from the spans ---------------------------------------

def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass layer totals; layers without spans report zero."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)

    def dur(s):
        return s[2] - s[1]

    def self_time(s):
        return dur(s) - _union_length([(c[1], c[2]) for c in children[s[3]]], s[1], s[2])

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)
    total = {name: sum(dur(s) for s in group) for name, group in by_name.items()}

    scans = by_name["entangle.scan"]
    scan_s = total.get("entangle.scan", 0.0)
    refine = covered = 0.0
    for s in scans:
        kids = children[s[3]]
        dense = [c[1] for c in kids if c[0] == "lindblad.integrate" and c[6][1]]
        refine += s[2] - min(dense) if dense else 0.0
        covered += sum(dur(c) for c in kids if c[0] in
                       ("lindblad.integrate", "entangle.eof", "entangle.pair_state"))
    capacity = busy = 0.0
    for s in by_name["experiments.pool"]:
        capacity += s[6] * dur(s)
        busy += sum(dur(c) for c in children[s[3]])
    writes = by_name["cli.write"]
    integrations = by_name["lindblad.integrate"]

    values = {
        "lindblad.integrate_s": (total.get("lindblad.integrate", 0.0), "s"),
        "lindblad.integrate_calls": (len(integrations), "count"),
        "lindblad.rhs_evals": (sum(s[6][0] for s in integrations), "count"),
        "lindblad.reevolve_s": (total.get("lindblad.evolve_chain", 0.0), "s"),
        "entangle.scan_s": (scan_s, "s"),
        "entangle.scans": (len(scans), "count"),
        "entangle.refine_s": (refine, "s"),
        "entangle.eof_s": (total.get("entangle.eof", 0.0), "s"),
        "entangle.eof_calls": (len(by_name["entangle.eof"]), "count"),
        "qops.assert_density_s": (total.get("qops.assert_density", 0.0), "s"),
        "entangle.pair_state_s": (total.get("entangle.pair_state", 0.0), "s"),
        "entangle.scan_self_s": (sum(self_time(s) for s in scans), "s"),
        "chain.graph_s": (total.get("chain.graph", 0.0), "s"),
        "experiments.pool_calls": (len(by_name["experiments.pool"]), "count"),
        "experiments.pool_idle_s": (capacity - busy, "s"),
        "experiments.estimate_s": (total.get("experiments.estimate", 0.0), "s"),
        "cli.self_s": (sum(self_time(s) for s in by_name[tracing.CALL_SPAN]), "s"),
        "cli.write_s": (total.get("cli.write", 0.0), "s"),
        "cli.bytes_written": (sum(s[6] for s in writes), "B"),
    }
    out = {name: {"value": v / passes, "unit": u} for name, (v, u) in values.items()}
    # ratios are not per pass
    ratios = {
        "entangle.window_extended_frac": (sum(s[6] for s in scans) / len(scans)
                                          if scans else 0.0),
        "entangle.scan_covered_frac": (covered / scan_s if scan_s else 0.0),
        "experiments.worker_busy_frac": (busy / capacity if capacity else 0.0),
    }
    for name, v in ratios.items():
        out[name] = {"value": v, "unit": "frac"}
    return out


# -- environment record -----------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(jobs) -> dict:
    def blas_version(module):
        try:
            info = module.show_config(mode="dicts")
            return info["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError, AttributeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
        "manifest_jobs": jobs,
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, tiny: bool = False) -> dict:
    os.makedirs(workdir, exist_ok=True)
    warm = tempfile.mkdtemp(prefix="warmup-", dir=workdir)
    spinstar.cli.main([*WARMUP_ARGV, "--outdir", warm])
    shutil.rmtree(warm, ignore_errors=True)

    plain = run_passes(workload, seed, seconds, workdir, tiny=tiny)
    result = {
        "workload": workload, "seed": seed,
        "attempted": len(plain["calls"]),
        "failed": sum(c["failed"] for c in plain["calls"]),
        "failures": plain["failures"],
        "passes": len(plain["passes"]),
        "end_to_end": end_to_end(plain),
        "tail": tail_latency(c["latency_s"] for c in plain["calls"]),
        "environment": environment(plain["jobs"]),
    }
    if trace:
        tr = tracing.Tracer(workdir)
        tr.install()
        try:
            traced = run_passes(workload, seed, seconds, workdir, tracer=tr, tiny=tiny)
        finally:
            tr.uninstall()
        tr.write(os.path.join(workdir, f"trace-{workload}-seed{seed}.json.gz"))
        layers = layer_metrics(tr.spans, len(traced["passes"]))
        overhead = (statistics.median(p["wall_s"] for p in traced["passes"])
                    - result["end_to_end"]["wall_s"]["value"])
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        result["per_layer"] = layers
        result["traced_passes"] = len(traced["passes"])
        result["trace_missing"] = tr.missing
        result["attempted"] += len(traced["calls"])
        result["failed"] += sum(c["failed"] for c in traced["calls"])
        result["failures"] += traced["failures"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir)
    result["spinstar_file"] = spinstar.cli.__file__
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
