"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run each workload at a tiny size, check that corrupted outputs are
counted as failed calls, that the tracer tolerates names the program no
longer has, and that ``run.py`` keeps its output contract.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest

import checks
import measure
import tracer as tracing
from workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    result = measure.measure(workload, seed=3, seconds=0, trace=True,
                             workdir=str(tmp_path), tiny=True)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["end_to_end"]) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = result["per_layer"]
    expected_scans = sum(c.scans for c in WORKLOADS[workload](3, 0, tiny=True))
    assert layers["entangle.scans"]["value"] == expected_scans
    assert layers["lindblad.rhs_evals"]["value"] > 0
    assert layers["entangle.eof_calls"]["value"] >= 201 * expected_scans
    assert result["trace_missing"] == []


def _corrupt_json(path, key):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    target = payload["estimates"]["3"] if key == "gx" else payload
    target[key] *= 1.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _corrupt_last_field(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head, value = lines[1].rsplit(",", 1)
    lines[1] = f"{head},{float(value) * 1.01!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, corrupt", [
    ("scan-long", lambda d: _corrupt_json(os.path.join(d, "scan.json"), "e_m")),
    ("robustness", lambda d: _corrupt_last_field(os.path.join(d, "fig7b.csv"))),
    ("robustness", lambda d: _corrupt_last_field(os.path.join(d, "fig6.csv"))),
    ("sensing", lambda d: _corrupt_json(os.path.join(d, "gradient.json"), "gx")),
])
def test_corrupted_output_makes_failed_frac_positive(workload, corrupt, tmp_path,
                                                      monkeypatch):
    real_main = measure.spinstar.cli.main

    def main_then_corrupt(argv):
        rc = real_main(argv)
        outdir = argv[argv.index("--outdir") + 1]
        try:
            corrupt(outdir)
        except FileNotFoundError:
            pass   # this call did not write the corrupted file
        return rc

    monkeypatch.setattr(measure.spinstar.cli, "main", main_then_corrupt)
    result = measure.measure(workload, seed=3, seconds=0, trace=False,
                             workdir=str(tmp_path), tiny=True)
    assert result["failed"] / result["attempted"] > 0


def test_missing_traced_name_reports_zero_calls(tmp_path):
    # as if a later version dropped solve_ivp from spinstar.entangle
    hooks = tuple(h for h in tracing.HOOKS if h[1] != "solve_ivp")
    hooks += (("spinstar.entangle", "no_longer_here", "lindblad.integrate", "nfev"),)
    tr = tracing.Tracer(str(tmp_path), hooks=hooks)
    tr.install()
    try:
        run = measure.run_passes("scan-long", 0, 0, str(tmp_path), tracer=tr, tiny=True)
    finally:
        tr.uninstall()
    assert tr.missing == ["spinstar.entangle.no_longer_here"]
    assert not any(c["failed"] for c in run["calls"])
    layers = measure.layer_metrics(tr.spans, len(run["passes"]))
    assert layers["lindblad.integrate_calls"]["value"] == 0
    assert layers["lindblad.rhs_evals"]["value"] == 0
    assert layers["entangle.eof_calls"]["value"] > 0
    # uninstall restores the program's own names
    import spinstar.cli
    import spinstar.entangle
    assert "open" not in vars(spinstar.cli)
    assert not hasattr(spinstar.entangle.eof, "__wrapped__")


def test_layer_metrics_self_time_and_pool_idle():
    spans = [
        ("cli.main", 0.0, 10.0, 1, None, 0, None),
        ("experiments.pool", 1.0, 9.0, 2, 1, 0, 2),
        ("entangle.scan", 1.0, 7.0, 3, 2, 0, 1),
        ("entangle.scan", 2.0, 8.0, 4, 2, 0, 0),
        ("lindblad.integrate", 2.0, 3.0, 5, 3, 0, (10, 0)),
        ("lindblad.integrate", 5.0, 6.0, 6, 3, 0, (7, 1)),
        ("cli.write", 9.0, 9.5, 7, 1, 0, 100),
    ]
    layers = measure.layer_metrics(spans, passes=1)
    assert layers["cli.self_s"]["value"] == pytest.approx(10.0 - 8.5)
    assert layers["experiments.pool_idle_s"]["value"] == pytest.approx(2 * 8.0 - 12.0)
    assert layers["experiments.worker_busy_frac"]["value"] == pytest.approx(12.0 / 16.0)
    assert layers["entangle.refine_s"]["value"] == pytest.approx(2.0)
    assert layers["entangle.scan_self_s"]["value"] == pytest.approx(12.0 - 2.0)
    assert layers["entangle.window_extended_frac"]["value"] == pytest.approx(0.5)
    assert layers["lindblad.rhs_evals"]["value"] == 17
    assert layers["cli.bytes_written"]["value"] == 100


def test_workload_names_agree():
    import run

    names = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS) == names


def test_tail_latency_needs_ten_calls_beyond():
    assert measure.tail_latency(range(10)) is None
    assert measure.tail_latency(range(11)) == (100.0 / 11, 0, 11)
    assert measure.tail_latency(range(40)) == (75.0, 29, 40)


def test_independent_pair_evaluation_matches_package():
    from spinstar.chain import ChainSpec
    from spinstar.entangle import eof, register_pair_state
    from spinstar.lindblad import NoiseSpec, evolve_chain

    spec = ChainSpec(m_chain=5, lost_sites=frozenset({2}))
    traj = evolve_chain(spec, NoiseSpec(t2_s=0.7e-3), n_samples=41)
    pairs = register_pair_state(traj)
    for k in (5, 20, 40):
        expected = eof(pairs[k])
        got = checks.independent_eof(5, 0.7, traj.times_s[k], lost_sites=(2,))
        assert abs(got - expected) < checks.EM_TOL


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_the_contract_line():
    done = _run_bench(ROOT, "--workload", "sensing", "--seed", "5", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run_bench(str(tmp_path), "--workload", "sensing", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
