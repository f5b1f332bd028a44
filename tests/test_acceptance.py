"""Acceptance suite: one test per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Three checks encode absolute magnitudes reported for this architecture
whose time-axis and dephasing-factor conventions are not recoverable;
they are asserted at their stated thresholds and fail honestly under the
conventions this package pins (angular kappa = 2*pi*26 kHz, bare sigma_z
dephasing at 1/T2 per site, coherent-superposition register preparation):

* criterion 5's absolute band: measured E_m(M=11, T2=1ms) = 0.0225
  against the target [0.25, 0.55] (every structural clause, including
  strict decrease in M, passes);
* criterion 8's disorder band: the 100-run Monte Carlo mean sits 30-86%
  above the clean value for M in {3, 5, 7} against the 15% band (the
  scan maximum cherry-picks lucky recurrence structure in disordered
  realizations, so disorder raises the mean here);
* criterion 10's fit-quality clause: best attainable log-space RMS
  residual on the simulated grid is 0.130 against the 0.10 bound
  (verified against a brute-force exponent scan); the planted-parameter
  recovery and sign clauses pass.

Everything else passes at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from spinstar.chain import (
    ChainSpec,
    build_chain_hamiltonian,
    build_coupling_graph,
    single_excitation_matrix,
)
from spinstar.entangle import max_entanglement_scan
from spinstar.experiments import (
    GAMMA_NV,
    GradientSpec,
    disorder_monte_carlo,
    estimate_gradient_xy,
    fit_exponential,
    gradient_coherence,
    loss_study,
)
from spinstar.lindblad import (
    NoiseSpec,
    SectorPropagator,
    SectorState,
    evolve,
    evolve_chain,
    initial_transfer_state,
)
from spinstar.star import (
    StarSpec,
    build_star_hamiltonian,
    dicke_state,
    star_spectrum_analytic,
    w_state_protocol,
)

T2_MS = 1e-3
NOISE = NoiseSpec(t2_s=T2_MS)


def ket2dm(psi):
    return np.outer(psi, np.conj(psi))


def ideal_bell_pair():
    """The distributed single-excitation pair (|10> + |01>)/sqrt(2)."""
    return ket2dm(np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2))


def effective_delta_ratio(spec):
    """Cubic-law register-coupling ratio of the arm left by losing both end
    sites: the register gap grows to ``register_gap + r``."""
    return (spec.spacing_nm / (spec.register_gap_nm + spec.spacing_nm)) ** 3


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def em_by_length():
    """E_m over M in {3,5,7,9,11} at T2 = 1 ms (sector path), timed."""
    start = time.monotonic()
    values = {}
    for m in (3, 5, 7, 9, 11):
        values[m] = max_entanglement_scan(ChainSpec(m_chain=m), NOISE).e_m
    return values, time.monotonic() - start


@pytest.fixture(scope="module")
def em_grid(em_by_length):
    """(m, t2_s) -> e_m over the full sweep grid."""
    values, _ = em_by_length
    grid = {(m, T2_MS): em for m, em in values.items()}
    for t2_ms in (0.5, 2.0):
        noise = NoiseSpec(t2_s=t2_ms * 1e-3)
        for m in (3, 5, 7, 9, 11):
            grid[(m, t2_ms * 1e-3)] = max_entanglement_scan(
                ChainSpec(m_chain=m), noise).e_m
    return grid


@pytest.fixture(scope="module")
def loss_reports():
    """LossReport per (m, n_lost) for m in 3..8."""
    reports = {}
    for n_lost in (1, 2):
        for m in range(3, 9):
            reports[(m, n_lost)] = loss_study(m, NOISE, n_lost)
    return reports


def test_a01_spectrum_exactness():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 8):
        spec = StarSpec(n, 1.0)
        numeric = np.sort(np.linalg.eigvalsh(build_star_hamiltonian(spec)))
        _, _, e, mult = np.array(star_spectrum_analytic(spec)).T
        analytic = np.sort(np.repeat(e, mult.astype(int)))
        assert len(numeric) == len(analytic) == 2 ** (n + 1)
        worst = max(worst, np.abs(numeric - analytic).max())
    elapsed = time.monotonic() - start
    report(worst < 1e-9 and elapsed < 1.0, "A1 spectrum-exactness",
           f"N=1..7 multiset deviation {worst:.2e}, {elapsed:.2f}s")


def test_a02_w_state_protocol():
    start = time.monotonic()
    spec = StarSpec(3, 1.0)
    ok = True
    details = []
    for outcome, k in ((0, 2), (1, 1)):
        prob, outer = w_state_protocol(spec, outcome)
        fidelity = abs(np.vdot(dicke_state(3, k), outer)) ** 2
        ok &= abs(prob - 0.5) <= 1e-10 and fidelity >= 1 - 1e-10
        details.append(f"outcome {outcome}: p={prob:.12f} F={fidelity:.12f}")
    elapsed = time.monotonic() - start
    report(ok and elapsed < 1.0, "A2 w-state-protocol",
           "; ".join(details) + f", {elapsed:.2f}s")


def test_a03_sector_oracle_equivalence():
    # the full-space path at rtol 1e-10 so representation error is
    # isolated from integrator error (the deviation scales linearly with
    # rtol); the sector path reads whole blocks through the identity probes
    start = time.monotonic()
    worst = 0.0
    for m in (1, 2, 3, 4):
        for t2 in (math.inf, T2_MS):
            for lost in (frozenset(), frozenset({1})):
                spec = ChainSpec(m_chain=m, lost_sites=lost)
                noise = NoiseSpec(t2_s=t2)
                full = evolve_chain(spec, noise, n_samples=21, rtol=1e-10, atol=1e-14)
                prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)),
                                        noise)
                state0 = initial_transfer_state(spec)
                n = state0.n_sites
                _, blocks, _ = prop.on_grid(state0.block11, full.times_s[-1], 21,
                                            np.eye(n * n))
                coh = prop.coherences(state0.block01, full.times_s)
                dev = max(np.abs(a - SectorState(state0.block00, c, b).to_full()).max()
                          for a, c, b in zip(full.states, coh, blocks.reshape(-1, n, n)))
                worst = max(worst, dev)
    elapsed = time.monotonic() - start
    report(worst < 1e-8 and elapsed < 60.0, "A3 sector-oracle-equivalence",
           f"M<=4, both noise levels, with/without loss: "
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_a04_dephasing_closed_form():
    t2 = T2_MS
    gamma = 1 / t2
    rho0 = ket2dm(np.array([1, 1], dtype=complex) / math.sqrt(2))
    traj = evolve(rho0, np.zeros((2, 2)), NoiseSpec(t2_s=t2),
                  t_end=3 * t2, n_samples=601)
    worst = 0.0
    for t, rho in zip(traj.times_s, traj.states):
        expected = 0.5 * math.exp(-2 * gamma * t)
        worst = max(worst, abs(rho[0, 1].real - expected) / expected)
    report(worst < 1e-6, "A4 dephasing-closed-form",
           f"relative error {worst:.2e} over [0, 3*T2]")


def test_a05_monotone_decrease_in_length(em_by_length):
    values, elapsed = em_by_length
    ems = [values[m] for m in (3, 5, 7, 9, 11)]
    decreasing = all(a > b for a, b in zip(ems, ems[1:]))
    report(decreasing and elapsed < 300.0, "A5 e_m-strictly-decreasing",
           "E_m(M) = " + ", ".join(f"{v:.4f}" for v in ems) + f", {elapsed:.1f}s")


def test_a05_absolute_band_at_m11(em_by_length):
    values, _ = em_by_length
    em11 = values[11]
    report(0.25 <= em11 <= 0.55, "A5 e_m-band-at-M11",
           f"E_m(11) = {em11:.4f} against [0.25, 0.55]")


def test_a06_two_end_loss_equivalence(loss_reports):
    spec5 = ChainSpec(m_chain=5, lost_sites={1, 5})
    ratio = effective_delta_ratio(spec5)
    h5, _ = build_chain_hamiltonian(spec5)
    h3, _ = build_chain_hamiltonian(ChainSpec(m_chain=3, delta_ratio=ratio))
    dev = np.abs(h5 - h3).max()
    report_52 = loss_reports[(5, 2)]
    ems = {cfg: res.e_m for cfg, res in zip(report_52.configs, report_52.results)}
    best = max(ems, key=ems.get)
    ok = (round(ratio, 2) == 0.12 and dev < 1e-9 and best == (1, 5))
    report(ok, "A6 two-end-loss-equivalence",
           f"delta/kappa = {ratio:.4f} (0.12 to two decimals), "
           f"relabelled deviation {dev:.1e}, best 2-loss config {best} "
           f"with E_m = {ems[best]:.4f}")


def test_a07_odd_even_loss_robustness(loss_reports):
    ok = True
    lines = []
    for n_lost in (1, 2):
        exps = {m: loss_reports[(m, n_lost)].expectation for m in range(3, 9)}
        checks = [
            exps[3] > exps[4],
            exps[5] > (exps[4] + exps[6]) / 2,
            exps[7] > (exps[6] + exps[8]) / 2,
        ]
        ok &= all(checks)
        lines.append(f"{n_lost}-loss: " +
                     " ".join(f"M{m}={exps[m]:.4f}" for m in range(3, 9)))
    report(ok, "A7 odd-even-loss-oscillation", "; ".join(lines))


def test_a08_disorder_determinism():
    short_a = disorder_monte_carlo([3], NOISE, runs=5, seed=0)
    short_b = disorder_monte_carlo([3], NOISE, runs=5, seed=0)
    report(short_a == short_b, "A8 disorder-determinism",
           "same seed reproduces the table exactly")


def test_a08_disorder_stability_band():
    ok = True
    lines = []
    for m in (3, 5, 7):
        clean = max_entanglement_scan(ChainSpec(m_chain=m), NOISE).e_m
        [row] = disorder_monte_carlo([m], NOISE, runs=100, variance=0.25,
                                     seed=0)
        rel = abs(row.mean_em - clean) / clean
        ok &= rel < 0.15
        lines.append(f"M={m}: clean {clean:.4f}, mean {row.mean_em:.4f} "
                     f"({rel:.1%})")
    report(ok, "A8 disorder-15%-band", "; ".join(lines))


def test_a09_gradient_sensing(em_by_length):
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = tuple(np.linspace(0.0, 4 * math.pi / w, 96))
    grad = GradientSpec(gx=g, gy=g, d_nm=d, times_s=times)
    series = gradient_coherence(ideal_bell_pair(), grad, (0, 0), (d, 0))
    cos_dev = np.abs(series - np.cos(w * np.asarray(times))).max()
    rel = max(abs(g_hat - g) / g for g_hat in estimate_gradient_xy(ideal_bell_pair(), grad))
    amp = {}
    for m in (3, 7):
        pair = max_entanglement_scan(ChainSpec(m_chain=m), NOISE).pair_state
        s = gradient_coherence(pair, grad, (0, 0), (d, 0))
        amp[m] = s.max() - s.min()
    ok = cos_dev < 1e-10 and rel < 1e-6 and amp[7] < amp[3]
    report(ok, "A9 gradient-sensing",
           f"ideal-pair cosine deviation {cos_dev:.1e}, recovery error "
           f"{rel:.1e}, oscillation amplitude M=7 {amp[7]:.3f} < M=3 {amp[3]:.3f}")


def test_a10_fit_planted_recovery():
    c, a, b = 1.0, 2e-4, 1.0
    pts = [(m, t2, c * math.exp(-a * (1 / t2) ** b * m))
           for m in (3, 5, 7, 9, 11) for t2 in (0.5e-3, 1e-3, 2e-3)]
    fit = fit_exponential(pts)
    rel = max(abs(fit.prefactor - c) / c, abs(fit.a - a) / a,
              abs(fit.b - b) / b)
    report(rel < 1e-4, "A10 fit-planted-recovery",
           f"worst relative parameter error {rel:.1e}")


def test_a10_fit_on_simulated_grid(em_grid):
    fit = fit_exponential([(m, t2, em) for (m, t2), em in em_grid.items()])
    signs = fit.a > 0 and fit.b > 0
    report(signs and fit.residual < 0.1, "A10 fit-simulated-grid",
           f"a = {fit.a:.3e}, b = {fit.b:.3f}, "
           f"log-space RMS residual {fit.residual:.4f} against 0.1")


def test_grid_ordering_regression(em_grid):
    # observed ordering across the default sweep grid: e_m never grows
    # with chain length or with the dephasing rate
    ok = True
    for t2 in (0.5e-3, 1e-3, 2e-3):
        col = [em_grid[(m, t2)] for m in (3, 5, 7, 9, 11)]
        ok &= all(a >= b for a, b in zip(col, col[1:]))
    for m in (3, 5, 7, 9, 11):
        row = [em_grid[(m, t2)] for t2 in (0.5e-3, 1e-3, 2e-3)]
        ok &= all(a <= b for a, b in zip(row, row[1:]))
    report(ok, "grid-ordering-regression",
           "e_m nonincreasing in M and in 1/T2 across the sweep grid")
