"""Output checks for the benchmark's CLI calls.

Every check reads the files a call wrote and returns a list of failure
messages; an empty list means the call's outputs are correct.  The
checks run outside the timed region.

The independent evaluation of the register pair does not use
spinstar's integrator or its concurrence: it propagates the
one-excitation block ``B`` of the state with a sparse matrix exponential
of its Liouvillian (Haken-Strobl: coherences between different sites
decay at ``4/T2``, populations do not) and reads the concurrence as
``2 |B[0, n-1]|``, which is exact for pair states without ``|11>``
weight.  Only the coupling matrix comes from ``spinstar.chain``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from spinstar.chain import ChainSpec, build_coupling_graph, single_excitation_matrix

# |E_F(independent) - e_m| at the reported tau*; the scan integrates at
# rtol 1e-8 / atol 1e-12, and the difference measured at M = 3..31 stays
# below 1.3e-9
EM_TOL = 1e-6
# the CSV writer keeps 12 significant digits
CSV_RTOL = 1e-10
# the estimator fits a noiseless cosine, so it recovers the gradient exactly
GRADIENT_RTOL = 1e-6


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float = CSV_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def eof_from_concurrence(c: float) -> float:
    """Wootters' entanglement of formation, base 2."""
    c = min(max(c, 0.0), 1.0)
    p = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    if p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def independent_eof(m: int, t2_ms: float, tau_s: float, lost_sites=()) -> float:
    """E_F of the register pair at time `tau_s` of a default-geometry arm,
    register 0 prepared in (|0> + |1>)/sqrt(2) as the CLI does by default."""
    spec = ChainSpec(m_chain=m, lost_sites=frozenset(lost_sites))
    h = sp.csr_matrix(single_excitation_matrix(build_coupling_graph(spec)))
    n = h.shape[0]
    eye = sp.identity(n, format="csr")
    damping = np.full((n, n), -4.0 / (t2_ms * 1e-3))
    np.fill_diagonal(damping, 0.0)
    # row-major vec: vec(h B) = (h x I) vec(B), vec(B h) = (I x h^T) vec(B)
    liouvillian = (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
                   + sp.diags(damping.ravel())).tocsc()
    b0 = np.zeros(n * n, dtype=complex)
    b0[0] = 0.5
    b = expm_multiply(liouvillian * tau_s, b0).reshape(n, n)
    return eof_from_concurrence(2.0 * abs(b[0, n - 1]))


def _check_curve(label: str, e_f: list[float]) -> list[str]:
    if not e_f:
        return [f"{label}: empty curve"]
    if not all(0.0 <= v <= 1.0 for v in e_f):
        return [f"{label}: e_f outside [0, 1]"]
    return []


def check_scan(outdir: str, m: int, t2_ms: float) -> list[str]:
    summary = _read_json(os.path.join(outdir, "scan.json"))
    curve = [float(r["e_f"]) for r in _read_csv(os.path.join(outdir, "fig3.csv"))]
    failures = _check_curve("fig3.csv", curve)
    e_m = float(summary["e_m"])
    if curve and not _close(e_m, max(curve)):
        failures.append(f"scan.json e_m {e_m!r} != curve maximum {max(curve)!r}")
    indep = independent_eof(m, t2_ms, float(summary["tau_star_s"]))
    if abs(indep - e_m) > EM_TOL:
        failures.append(f"e_m {e_m!r} != independent {indep!r} at tau*")
    return failures


def check_disorder(outdir: str, ms, runs: int) -> list[str]:
    table = _read_csv(os.path.join(outdir, "fig6.csv"))
    by_m: dict = {}
    for r in _read_csv(os.path.join(outdir, "disorder_runs.csv")):
        by_m.setdefault(int(r["m"]), []).append(float(r["e_m"]))
    failures = []
    if sorted(by_m) != sorted(ms) or any(len(v) != runs for v in by_m.values()):
        failures.append("disorder_runs.csv does not hold runs x ms rows")
    for m, values in by_m.items():
        failures += _check_curve(f"disorder_runs.csv m={m}", values)
    for r in table:
        values = np.array(by_m.get(int(r["m"]), [math.nan]))
        if not (_close(float(r["mean_em"]), values.mean())
                and _close(float(r["std_em"]), values.std())):
            failures.append(f"fig6.csv row m={r['m']} does not match disorder_runs.csv")
    if len(table) != len(by_m):
        failures.append("fig6.csv and disorder_runs.csv cover different lengths")
    return failures


def check_loss(outdir: str, t2_ms: float, kappa_angular: float) -> list[str]:
    curves: dict = {}
    for r in _read_csv(os.path.join(outdir, "fig7cd.csv")):
        key = (int(r["m"]), int(r["n_lost"]), r["lost_sites"])
        curves.setdefault(key, []).append((float(r["tau_kt"]), float(r["e_f"])))
    failures = []
    maxima: dict = {}
    for (m, n_lost, label), pts in curves.items():
        failures += _check_curve(f"fig7cd.csv {m}/{label}", [e for _, e in pts])
        tau_kt, e_max = max(pts, key=lambda p: p[1])
        maxima.setdefault((m, n_lost), []).append(e_max)
        lost = [int(s) for s in label.split("+")]
        indep = independent_eof(m, t2_ms, tau_kt / kappa_angular, lost)
        if abs(indep - e_max) > EM_TOL:
            failures.append(f"fig7cd.csv {m}/{label}: maximum {e_max!r} != "
                            f"independent {indep!r}")
    rows = _read_csv(os.path.join(outdir, "fig7b.csv"))
    for r in rows:
        values = maxima.get((int(r["m"]), int(r["n_lost"])), [math.nan])
        if not _close(float(r["mean_em"]), float(np.mean(values))):
            failures.append(f"fig7b.csv row {r['m']}/{r['n_lost']} does not match "
                            "the fig7cd.csv curve maxima")
    if len(rows) != len(maxima):
        failures.append("fig7b.csv and fig7cd.csv cover different loss counts")
    return failures


def check_gradient(outdir: str, ms, gx: float, gy: float, n_times: int) -> list[str]:
    report = _read_json(os.path.join(outdir, "gradient.json"))
    series: dict = {}
    for r in _read_csv(os.path.join(outdir, "fig8b.csv")):
        series.setdefault(int(r["m"]), []).append(float(r["coherence"]))
    failures = []
    for m in ms:
        est = report["estimates"].get(str(m), {})
        if "error" in est or "gx" not in est:
            failures.append(f"m={m}: no gradient estimate ({est.get('error')})")
            continue
        if not (_close(est["gx"], gx, GRADIENT_RTOL) and _close(est["gy"], gy, GRADIENT_RTOL)):
            failures.append(f"m={m}: estimate ({est['gx']}, {est['gy']}) "
                            f"misses ({gx}, {gy})")
        amp = float(est["amplitude"])
        values = series.get(m, [])
        if not 0.0 < amp <= 1.0:
            failures.append(f"m={m}: pair amplitude {amp} outside (0, 1]")
        elif len(values) != n_times or max(abs(v) for v in values) > amp * (1 + CSV_RTOL):
            failures.append(f"m={m}: fig8b.csv series does not fit amplitude {amp}")
    return failures


def check_manifest(outdir: str) -> tuple[list[str], dict]:
    """Every listed output exists; returns (failures, resolved config)."""
    manifest = _read_json(os.path.join(outdir, "manifest.json"))
    missing = [name for name in manifest["outputs"]
               if not os.path.isfile(os.path.join(outdir, name))]
    failures = [f"manifest lists missing output {name}" for name in missing]
    return failures, manifest["config"]
