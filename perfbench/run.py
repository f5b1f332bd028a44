"""spinstar benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload scan-long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run it from the root of a checkout; it imports spinstar from ``src/`` of
that checkout and writes only below ``.perfbench_work/`` there.  It

1. times ``setup_s``: a fresh interpreter importing ``spinstar.cli`` and
   making one warm-up call, several times, reporting the median;
2. starts ``measure.py`` in a fresh process, which drives
   ``spinstar.cli.main`` in-process, checks every output and, with
   ``--trace 1``, repeats the passes under the span tracer;
3. prints every metric by name with its unit, then as the last line one
   JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

BLAS threads are pinned to one, in this process and in every process
it starts, before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("scan-long", "robustness", "sensing")
SETUP_PROBES = 5
# every process the benchmark starts must end within this many seconds
CHILD_TIMEOUT_S = 170.0

PROBE = (
    "import sys\n"
    "import spinstar.cli as cli\n"
    "rc = cli.main(['scan', '--m', '3', '--samples', '201', '--outdir', sys.argv[1]])\n"
    "print(cli.__file__)\n"
    "sys.exit(rc)\n"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _run(cmd, env, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish in time")
    finally:
        # pool workers of a crashed child would otherwise outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _inside(path: str, root: str) -> bool:
    return os.path.commonpath([os.path.realpath(path), os.path.realpath(root)]) \
        == os.path.realpath(root)


def measure_setup(env, workdir: str, src: str, deadline: float) -> float:
    """Median wall time of fresh-interpreter import plus one warm-up call."""
    times = []
    for _ in range(SETUP_PROBES):
        outdir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        t0 = time.perf_counter()
        done = _run([sys.executable, "-c", PROBE, outdir], env, deadline,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(outdir, ignore_errors=True)
        if done.returncode != 0:
            raise BenchError(f"spinstar does not import and run:\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        if not lines or not _inside(lines[-1], src):
            raise BenchError(f"spinstar imported from outside {src}")
        times.append(elapsed)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 root: str, env, workdir: str) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    src = os.path.join(root, "src")
    setup = measure_setup(env, workdir, src, deadline)
    result_path = os.path.join(workdir, f"result-{workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", workdir, "--result", result_path]
    done = _run(cmd, env, deadline, stdout=subprocess.DEVNULL)
    if done.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"measurement of {workload} failed (exit {done.returncode})")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not _inside(result.pop("spinstar_file"), src):
        raise BenchError(f"spinstar imported from outside {src}")
    result["end_to_end"]["setup_s"] = {"value": setup, "unit": "s"}
    return result


def report_lines(r: dict) -> list[str]:
    """Human-readable lines: every metric by name, with its unit."""
    w = r["workload"]
    lines = [f"[{w}] seed={r['seed']} passes={r['passes']} calls={r['attempted']} "
             f"failed={r['failed']}"]
    lines += [f"[{w}] check failed: {msg}" for msg in r["failures"]]
    for name, m in r["end_to_end"].items():
        lines.append(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"[{w}] failed_frac = {r['failed'] / r['attempted']:.6g} frac")
    if r["tail"] is None:
        lines.append(f"[{w}] call_tail_s omitted: fewer than 11 calls")
    else:
        pct, value, n = r["tail"]
        lines.append(f"[{w}] call_tail_s = {value:.6g} s (p{pct:.1f} of {n} calls)")
    for name, m in r.get("per_layer", {}).items():
        lines.append(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    if r.get("trace_missing"):
        lines.append(f"[{w}] traced names absent from the program (zero calls): "
                     + ", ".join(r["trace_missing"]))
    lines.append(f"[{w}] environment {json.dumps(r['environment'], sort_keys=True)}")
    return lines


def contract_line(results: list, trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        metrics.update({prefix + name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in r[key].items()})
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default=None,
                        help="also write the full results (environment, all "
                             "metrics, failures) to this file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spinstar", "cli.py")):
        print(f"perfbench: no spinstar sources under {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=workdir)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  root, env, workdir)
            print("\n".join(report_lines(result)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"command": ["python3", "perfbench/run.py", *(argv or sys.argv[1:])],
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(contract_line(results, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
