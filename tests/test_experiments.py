import math
import re

import numpy as np
import pytest

from spinstar.chain import ChainSpec, GeometryError
from spinstar.entangle import max_entanglement_scan
from spinstar.experiments import (
    GAMMA_NV,
    EstimationError,
    GradientSpec,
    _sinusoid_sse,
    disorder_monte_carlo,
    distributed_pair,
    estimate_gradient,
    estimate_gradient_xy,
    fit_exponential,
    gradient_coherence,
    ideal_bell_pair,
    loss_study,
    stable_seed,
    sweep_length,
)
from spinstar.lindblad import NoiseSpec

NOISE = NoiseSpec(t2_s=1e-3)
FAST = {"n_samples": 401}


def test_stable_seed_is_deterministic_and_spread():
    a = stable_seed(0, "disorder", 3, 0)
    assert a == stable_seed(0, "disorder", 3, 0)
    assert a != stable_seed(0, "disorder", 3, 1)
    assert a != stable_seed(0, "loss", 3, 0)
    assert a != stable_seed(1, "disorder", 3, 0)


def test_sweep_single_length_matches_direct_scan():
    direct = max_entanglement_scan(ChainSpec(m_chain=3), NOISE, **FAST)
    [point] = sweep_length([3], NOISE, **FAST)
    assert point.m_chain == 3
    assert point.e_m == direct.e_m
    assert point.result.tau_star_kt == direct.tau_star_kt


def test_sweep_rejects_inadmissible_arm_count():
    with pytest.raises(GeometryError):
        sweep_length([3], NOISE, n_outer=38, **FAST)


def test_sweep_noiseless_dominates():
    clean = sweep_length([5], NoiseSpec(t2_s=math.inf), **FAST)[0]
    noisy = sweep_length([5], NOISE, **FAST)[0]
    assert clean.e_m > noisy.e_m


def test_fit_recovers_planted_parameters():
    c, a, b = 1.0, 2e-4, 1.0
    pts = [(m, t2, c * math.exp(-a * (1 / t2) ** b * m))
           for m in (3, 5, 7, 9, 11) for t2 in (0.5e-3, 1e-3, 2e-3)]
    fit = fit_exponential(pts)
    assert abs(fit.prefactor - c) / c < 1e-4
    assert abs(fit.a - a) / a < 1e-4
    assert abs(fit.b - b) / b < 1e-4
    assert fit.residual < 1e-6


def test_fit_is_permutation_invariant():
    pts = [(m, t2, 0.9 * math.exp(-3e-3 * (1 / t2) ** 0.7 * m))
           for m in (3, 5, 7) for t2 in (0.5e-3, 1e-3, 2e-3)]
    fwd = fit_exponential(pts)
    rev = fit_exponential(list(reversed(pts)))
    assert fwd == rev


def test_fit_widens_pinned_bounds():
    pts = [(m, t2, math.exp(-1e-6 * (1 / t2) ** 1.8 * m))
           for m in (3, 5, 7, 9) for t2 in (0.25e-3, 0.5e-3, 1e-3, 2e-3)]
    fit = fit_exponential(pts, b_bounds=(0.05, 1.0))   # optimum above hi
    assert abs(fit.b - 1.8) < 1e-3


def test_fit_exponent_is_stable_under_rounding_of_e_m():
    # log-SSE is flat in b: inputs moved by 1e-15 relative must not move b
    # beyond what the polish on dSSE/db resolves
    rng = np.random.default_rng(7)
    pts = [(m, t2, 0.9 * math.exp(-3e-3 * (1 / t2) ** 0.6 * m + 0.1 * rng.normal()))
           for m in (3, 5, 7, 9, 11) for t2 in (0.5e-3, 1e-3, 2e-3)]
    base = fit_exponential(pts).b
    for _ in range(5):
        signs = rng.choice([-1.0, 1.0], size=len(pts))
        moved = [(m, t2, em * (1 + 1e-15 * s)) for (m, t2, em), s in zip(pts, signs)]
        assert abs(fit_exponential(moved).b - base) < 1e-12


def test_fit_drops_nonpositive_rows_with_warning():
    pts = [(m, t2, math.exp(-0.2 * m)) for m in (3, 5, 7)
           for t2 in (0.5e-3, 1e-3, 2e-3)]
    bad = pts + [(9, 1e-3, 0.0)]
    with pytest.warns(UserWarning):
        fit = fit_exponential(bad)
    assert fit.a > 0


def test_fit_rejects_thin_grids():
    with pytest.raises(ValueError):
        fit_exponential([(3, 1e-3, 0.5)] * 6)
    pts = [(m, 1e-3, math.exp(-0.1 * m)) for m in (3, 5, 7, 9, 11, 13)]
    with pytest.raises(ValueError):
        fit_exponential(pts)   # a single t2 value


def test_disorder_zero_variance_reproduces_clean_value():
    clean = max_entanglement_scan(ChainSpec(m_chain=3), NOISE, **FAST)
    [row] = disorder_monte_carlo([3], NOISE, runs=3, variance=0.0, seed=5, **FAST)
    assert row.std_em == 0.0
    assert abs(row.mean_em - clean.e_m) < 1e-12


def test_disorder_is_seed_deterministic():
    a = disorder_monte_carlo([3], NOISE, runs=4, seed=7, **FAST)
    b = disorder_monte_carlo([3], NOISE, runs=4, seed=7, **FAST)
    assert a == b
    c = disorder_monte_carlo([3], NOISE, runs=4, seed=8, **FAST)
    assert a != c


def test_disorder_runs_differ_from_each_other():
    [row] = disorder_monte_carlo([3], NOISE, runs=4, seed=7, **FAST)
    assert len(set(row.values)) == 4


def test_disorder_mean_is_continuous_in_the_variance():
    clean = max_entanglement_scan(ChainSpec(m_chain=3), NOISE, **FAST).e_m
    rel = {}
    for var in (0.25, 0.01, 0.0):
        [row] = disorder_monte_carlo([3], NOISE, runs=6, variance=var,
                                     seed=3, **FAST)
        rel[var] = abs(row.mean_em - clean) / clean
    assert rel[0.0] < 1e-12
    assert rel[0.01] < 0.10
    assert rel[0.01] < rel[0.25]


def test_loss_study_single_loss_m5():
    report = loss_study(5, NOISE, 1, **FAST)
    assert report.configs == ((1,), (2,), (3,), (4,), (5,))
    assert len(report.results) == 5
    ems = report.e_m_by_config()
    assert report.expectation == pytest.approx(np.mean(list(ems.values())))
    # distinct loss positions produce genuinely different curves
    assert len({round(v, 4) for v in ems.values()}) >= 3


def test_loss_study_two_loss_end_pair_wins():
    report = loss_study(5, NOISE, 2, **FAST)
    assert len(report.configs) == 6
    ems = report.e_m_by_config()
    best = max(ems, key=ems.get)
    assert best == (1, 5)


def test_loss_study_empty_report():
    report = loss_study(2, NOISE, 2, **FAST)
    assert report.configs == ()
    assert report.expectation is None


def _coarse_em(spec, reverse=False):
    # peak e_f on the default grid, optionally injecting from the far
    # register (realized by reversing the site order of the couplings)
    from spinstar.chain import build_coupling_graph, single_excitation_matrix
    from spinstar.entangle import eof, pair_state_from_sector
    from spinstar.lindblad import default_window_s, evolve_sector, initial_transfer_state

    h1 = single_excitation_matrix(build_coupling_graph(spec))
    if reverse:
        h1 = h1[::-1, ::-1]
    traj = evolve_sector(initial_transfer_state(spec), h1, NOISE,
                         default_window_s(spec), n_samples=FAST["n_samples"],
                         kappa_angular=spec.kappa_angular)
    return max(eof(pair_state_from_sector(s)) for s in traj.states)


def test_loss_mirror_covariance():
    # reversing the arm maps a loss at site s to site M+1-s; with the
    # injection register reversed as well, the scans coincide exactly
    m = 4
    for s, s_mirror in ((1, 4), (2, 3)):
        direct = _coarse_em(ChainSpec(m_chain=m, lost_sites={s}))
        mirrored = _coarse_em(ChainSpec(m_chain=m, lost_sites={s_mirror}),
                              reverse=True)
        assert abs(direct - mirrored) < 1e-6


def test_gradient_coherence_ideal_pair_is_cosine():
    g = 10.0
    d = 50.0
    period = 2 * math.pi / (GAMMA_NV * g * d * 1e-9)
    times = tuple(np.linspace(0.0, period, 97))
    grad = GradientSpec(gx=g, gy=0.0, d_nm=d, times_s=times)
    series = gradient_coherence(ideal_bell_pair(), grad, (0, 0), (d, 0))
    expected = np.cos(GAMMA_NV * g * d * 1e-9 * np.asarray(times))
    assert np.abs(series - expected).max() < 1e-10
    # the quarter, half and full turn hit +1, -1, +1
    assert abs(series[0] - 1.0) < 1e-12
    assert abs(series[48] + 1.0) < 1e-10
    assert abs(series[-1] - 1.0) < 1e-10


def test_gradient_coherence_offset_and_reference_cancel():
    d = 50.0
    times = tuple(np.linspace(0, 1e-4, 32))
    base = GradientSpec(gx=7.0, gy=3.0, d_nm=d, times_s=times)
    shifted = GradientSpec(gx=7.0, gy=3.0, d_nm=d, times_s=times,
                           b0_tesla=1e-3, omega0=2 * math.pi * 2.87e9)
    pair = ideal_bell_pair()
    a = gradient_coherence(pair, base, (0, 0), (d, 0))
    b = gradient_coherence(pair, shifted, (0, 0), (d, 0))
    assert np.abs(a - b).max() < 1e-9


def test_gradient_coherence_rejects_zero_separation():
    grad = GradientSpec(times_s=(0.0, 1e-6))
    with pytest.raises(ValueError):
        gradient_coherence(ideal_bell_pair(), grad, (1.0, 2.0), (1.0, 2.0))


def test_estimate_gradient_noiseless_exact():
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = np.linspace(0, 4 * math.pi / w, 64)
    series = np.cos(w * times)
    got = estimate_gradient(times, series, GAMMA_NV, d)
    assert abs(got - g) / g < 1e-6


def test_estimate_gradient_damped_amplitude():
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = np.linspace(0, 4 * math.pi / w, 64)
    series = 0.4 * np.cos(w * times)
    got = estimate_gradient(times, series, GAMMA_NV, d)
    assert abs(got - g) / g < 1e-3


def test_estimate_gradient_rejects_weak_series():
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = np.linspace(0, 4 * math.pi / w, 64)
    with pytest.raises(EstimationError):
        estimate_gradient(times, 0.01 * np.cos(w * times), GAMMA_NV, d)


def test_sinusoid_sse_matches_lstsq_per_frequency():
    # the stacked SVD against one lstsq per frequency, on the search grid of
    # estimate_gradient; on the half-integer grid its top frequency pi/dt
    # puts every sample on a multiple of pi, so the sine column vanishes
    # to rounding and lstsq's cutoff drops it
    rng = np.random.default_rng(12)
    for times in (np.linspace(0.0, 1.0, 64), np.sort(rng.uniform(0.0, 1.0, 40)),
                  0.5 * np.arange(64)):
        series = 0.7 * np.cos(23.0 * times + 0.4) + 0.05 * rng.normal(size=len(times))
        w_grid = np.linspace(math.pi / times[-1], math.pi / np.diff(times).min(), 2048)
        loop = []
        for w in w_grid:
            basis = np.column_stack([np.cos(w * times), np.sin(w * times)])
            coef, *_ = np.linalg.lstsq(basis, series, rcond=None)
            r = series - basis @ coef
            loop.append(r @ r)
        got = _sinusoid_sse(times, series, w_grid)
        assert np.abs(got - np.array(loop)).max() < 1e-12 * (series @ series)
        assert np.argmin(got) == np.argmin(loop)


def test_estimate_gradient_rejects_short_series():
    with pytest.raises(EstimationError):
        estimate_gradient(np.linspace(0, 1, 4), np.ones(4))


def _lstsq_sse(times, series, w_grid):
    loop = []
    for w in w_grid:
        basis = np.column_stack([np.cos(w * times), np.sin(w * times)])
        coef, *_ = np.linalg.lstsq(basis, series, rcond=None)
        r = series - basis @ coef
        loop.append(r @ r)
    return np.array(loop)


def test_sinusoid_sse_random_oracle():
    # seeded series against one lstsq per frequency on the search grid of
    # estimate_gradient, over uniform, random and half-integer grids and
    # four noise levels.  At the top frequency of the quarter-offset grid
    # the cosine column vanishes to rounding, so only the pivot keeps the
    # sine direction.  At the top frequency of the jittered grid the two
    # columns are parallel to ~1e-10 yet above the cutoff; a least-squares
    # residual is then fixed only to ~eps/1e-10 of the part of y outside
    # the basis, so that grid takes a near-top-frequency series with small
    # noise, and needs both Gram-Schmidt passes and the cutoff on s2 itself
    rng = np.random.default_rng(2024)
    grids = [np.linspace(0.0, 1.0, 64), np.sort(rng.uniform(0.0, 1.0, 40)),
             0.5 * np.arange(64), 0.25 + 0.5 * np.arange(64)]
    cases = [(times, 0.7 * np.cos(23.0 * times + 0.4) + noise * rng.normal(size=len(times)))
             for times in grids for noise in (0.0, 1e-3, 1e-2, 0.3)]
    jittered = 0.3 + 0.5 * np.arange(64) + 1e-11 * rng.normal(size=64)
    top = math.pi / np.diff(jittered).min()
    cases += [(jittered, np.cos(top * jittered + 0.3) + noise * rng.normal(size=64))
              for noise in (0.0, 1e-3, 1e-2)]
    for times, series in cases:
        w_grid = np.linspace(math.pi / (times[-1] - times[0]),
                             math.pi / np.diff(times).min(), 2048)
        loop = _lstsq_sse(times, series, w_grid)
        got = _sinusoid_sse(times, series, w_grid)
        assert np.abs(got - loop).max() < 1e-12 * (series @ series)
        assert np.argmin(got) == np.argmin(loop)


def test_sinusoid_sse_of_a_stack_matches_single_series():
    # one basis for S series; BLAS may sum a one-column product in another
    # order, so columns agree to rounding and share the argmin
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 2.0, 50))
    w_grid = np.linspace(math.pi / (times[-1] - times[0]),
                         math.pi / np.diff(times).min(), 2048)
    stack = np.column_stack([a * np.cos(w * times + p) + 0.1 * rng.normal(size=50)
                             for a, w, p in ((0.9, 7.0, 0.2), (0.3, 31.0, 1.1),
                                             (0.6, 12.5, -0.7))])
    got = _sinusoid_sse(times, stack, w_grid)
    assert got.shape == (2048, 3)
    for s in range(3):
        single = _sinusoid_sse(times, stack[:, s], w_grid)
        assert single.shape == (2048,)
        norm2 = stack[:, s] @ stack[:, s]
        assert np.abs(got[:, s] - single).max() < 1e-13 * norm2
        assert np.argmin(got[:, s]) == np.argmin(single)


@pytest.mark.parametrize("g", [(12.0, 5.0), (13.7, 10.2), (6.0, 0.5)],
                         ids=["both", "close", "y-too-slow"])
def test_two_round_readout_equals_two_single_estimates(g):
    # one shared coarse search, then x and y refined as estimate_gradient
    # refines them: the same numbers, or the same first error
    d = 50.0
    times = tuple(np.linspace(0, 2 * math.pi / (GAMMA_NV * g[0] * d * 1e-9), 64))
    grad = GradientSpec(gx=g[0], gy=g[1], d_nm=d, times_s=times)
    pair = ideal_bell_pair() * 0.8 + np.diag([0.2, 0, 0, 0])

    def single(axis):
        series = gradient_coherence(pair, grad, (0.0, 0.0), axis)
        return estimate_gradient(times, series, grad.gamma, d)

    try:
        expected = (single((d, 0.0)), single((0.0, d)))
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=re.escape(str(exc))):
            estimate_gradient_xy(pair, grad)
        return
    assert estimate_gradient_xy(pair, grad) == expected


_GRID = np.linspace(0.0, 1e-6, 32)


@pytest.mark.parametrize("times, series, message", [
    (np.r_[_GRID[:-1], _GRID[-2]], np.cos(2e7 * _GRID), "increase strictly"),
    (np.random.default_rng(3).permutation(_GRID), np.cos(2e7 * _GRID), "increase strictly"),
    (np.r_[_GRID[:-1], np.nan], np.cos(2e7 * _GRID), "times must be finite"),
    (_GRID, np.r_[np.cos(2e7 * _GRID[:-1]), np.inf], "series must be finite"),
], ids=["repeated", "shuffled", "nan-time", "inf-sample"])
def test_estimate_gradient_rejects_bad_readout_grids(times, series, message):
    with pytest.raises(EstimationError, match=message):
        estimate_gradient(times, series)


def test_two_round_readout_recovers_both_axes():
    g = (12.0, 5.0)
    d = 50.0
    w = GAMMA_NV * max(g) * d * 1e-9
    times = tuple(np.linspace(0, 6 * math.pi / w, 128))
    grad = GradientSpec(gx=g[0], gy=g[1], d_nm=d, times_s=times)
    gx, gy = estimate_gradient_xy(ideal_bell_pair(), grad)
    assert abs(gx - g[0]) / g[0] < 1e-6
    assert abs(gy - g[1]) / g[1] < 1e-6


def test_distributed_pair_coherence_shrinks_with_length():
    pair3 = distributed_pair(ChainSpec(m_chain=3), NOISE, **FAST)
    pair7 = distributed_pair(ChainSpec(m_chain=7), NOISE, **FAST)
    amp3 = 2 * abs(pair3[1, 2])
    amp7 = 2 * abs(pair7[1, 2])
    assert amp7 < amp3
    # and so does the sensing oscillation amplitude
    g, d = 10.0, 50.0
    period = 2 * math.pi / (GAMMA_NV * g * d * 1e-9)
    grad = GradientSpec(gx=g, gy=0.0, d_nm=d,
                        times_s=tuple(np.linspace(0, period, 48)))
    s3 = gradient_coherence(pair3, grad, (0, 0), (d, 0))
    s7 = gradient_coherence(pair7, grad, (0, 0), (d, 0))
    assert (s3.max() - s3.min()) > (s7.max() - s7.min())
