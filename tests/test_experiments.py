import math
import re
import warnings

import numpy as np
import pytest

from spinstar.chain import ChainSpec
from spinstar.entangle import max_entanglement_scan
from spinstar.experiments import (
    GAMMA_NV,
    EstimationError,
    GradientSpec,
    _sinusoid_gradient,
    disorder_monte_carlo,
    estimate_gradient_xy,
    fit_exponential,
    gradient_coherence,
    loss_study,
    stable_seed,
)
from spinstar.lindblad import NoiseSpec

NOISE = NoiseSpec(t2_s=1e-3)
FAST = {"n_samples": 401}


def ideal_bell_pair():
    """The distributed single-excitation pair (|10> + |01>)/sqrt(2)."""
    psi = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    return np.outer(psi, psi.conj())


def phased_pair(amplitude, phase):
    """A pair whose coherence oscillation 2|rho_{01,10}| is `amplitude`,
    with a complex phase: the rest of the weight sits on |00>."""
    psi = np.array([0, 1, np.exp(1j * phase), 0]) / math.sqrt(2)
    return amplitude * np.outer(psi, psi.conj()) + np.diag([1.0 - amplitude, 0, 0, 0])


def estimate_gradient(times_s, series, d_nm=50.0):
    """One series through the estimator that estimate_gradient_xy runs per axis."""
    return _sinusoid_gradient(times_s, series, d_nm)


# the readout grid of the `gradient` command at gx = 10: one period, 64 samples
CLI_GRID = tuple(np.linspace(0.0, 2 * math.pi / (GAMMA_NV * 10.0 * 50.0 * 1e-9), 64))


def test_stable_seed_is_deterministic_and_spread():
    a = stable_seed(0, "disorder", 3, 0)
    assert a == stable_seed(0, "disorder", 3, 0)
    assert a != stable_seed(0, "disorder", 3, 1)
    assert a != stable_seed(0, "loss", 3, 0)
    assert a != stable_seed(1, "disorder", 3, 0)


def test_sweep_single_length_matches_direct_scan(tmp_path):
    from spinstar.cli import main

    direct = max_entanglement_scan(ChainSpec(m_chain=3), NOISE, **FAST)
    assert main(["sweep", "--ms", "3", "--samples", "401", "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "fig4b.csv").read_text().splitlines()
    assert rows[1] == f"3,{direct.tau_star_kt:.12g},{direct.tau_star_s:.12g},{direct.e_m:.12g}"


def test_sweep_noiseless_dominates():
    clean = max_entanglement_scan(ChainSpec(m_chain=5), NoiseSpec(t2_s=math.inf), **FAST)
    noisy = max_entanglement_scan(ChainSpec(m_chain=5), NOISE, **FAST)
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
    # exponents far from the typical 0.6; at b = 12 the decays span
    # 1e-10 to 151 e-folds over the grid
    for b, a in ((1.8, 1e-6), (12.0, 1e-43)):
        pts = [(m, t2, math.exp(-a * (1 / t2) ** b * m))
               for m in (3, 5, 7, 9) for t2 in (0.25e-3, 0.5e-3, 1e-3, 2e-3)]
        assert abs(fit_exponential(pts).b - b) < 1e-3


def test_fit_refines_the_exponent_with_a_noiseless_column():
    # at 1/T2 = 0 the slope x log(1/T2) of dSSE/db takes its limit 0, so the
    # exponent is refined as with a huge finite T2 and stays off the 97-point grid
    scans = {(m, t2): max_entanglement_scan(ChainSpec(m_chain=m), NoiseSpec(t2_s=t2),
                                            n_samples=101).e_m
             for m in (3, 5, 7) for t2 in (math.inf, 1e-3, 2e-3)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_exponential([(m, t2, em) for (m, t2), em in scans.items()])
    huge = fit_exponential([(m, 1e297 if t2 == math.inf else t2, em)
                            for (m, t2), em in scans.items()])
    assert abs(fit.b - huge.b) < 1e-9
    assert fit.b not in np.geomspace(1e-3, 50.0, 97)


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
    ems = {cfg: res.e_m for cfg, res in zip(report.configs, report.results)}
    assert report.expectation == pytest.approx(np.mean(list(ems.values())))
    # distinct loss positions produce genuinely different curves
    assert len({round(v, 4) for v in ems.values()}) >= 3


def test_loss_study_two_loss_end_pair_wins():
    report = loss_study(5, NOISE, 2, **FAST)
    assert len(report.configs) == 6
    ems = {cfg: res.e_m for cfg, res in zip(report.configs, report.results)}
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
    from spinstar.entangle import eof
    from spinstar.lindblad import (SectorPropagator, SectorState, default_window_s,
                                   initial_transfer_state)
    from spinstar.qops import partial_trace

    h1 = single_excitation_matrix(build_coupling_graph(spec))
    if reverse:
        h1 = h1[::-1, ::-1]
    state0 = initial_transfer_state(spec)
    n = state0.n_sites
    prop = SectorPropagator(h1, NOISE)
    # whole blocks through the identity probes, read by partial trace
    times, blocks, _ = prop.on_grid(state0.block11, default_window_s(spec),
                                       FAST["n_samples"], np.eye(n * n))
    coh = prop.coherences(state0.block01, times)
    states = [SectorState(state0.block00, c, b) for c, b in zip(coh, blocks.reshape(-1, n, n))]
    return max(eof(partial_trace(s.to_full(), (0, n - 1))) for s in states)


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
    # only the separation of the registers reaches the readout: a common
    # offset of both positions adds the same phase to |01> and |10>
    d = 50.0
    times = tuple(np.linspace(0, 1e-4, 32))
    grad = GradientSpec(gx=7.0, gy=3.0, d_nm=d, times_s=times)
    pair = ideal_bell_pair()
    a = gradient_coherence(pair, grad, (0, 0), (d, 0))
    for offset in ((30.0, -20.0), (-1e3, 2e3)):
        b = gradient_coherence(pair, grad, offset, (offset[0] + d, offset[1]))
        assert np.abs(a - b).max() < 1e-9


def test_gradient_coherence_rejects_zero_separation():
    grad = GradientSpec(times_s=(0.0, 1e-6))
    with pytest.raises(ValueError):
        gradient_coherence(ideal_bell_pair(), grad, (1.0, 2.0), (1.0, 2.0))


@pytest.mark.filterwarnings("error")
def test_estimate_gradient_noiseless_exact():
    # two periods of a cosine, then the `gradient` command's grid at
    # gx = 10 read at other gradients, for the Bell pair and for a pair
    # with a complex coherence
    d = 50.0
    cases = [(10.0, "two-periods", ideal_bell_pair())]
    cases += [(g, "cli", ideal_bell_pair()) for g in (10.0, 12.3, 11.1, 14.9, 13.2)]
    cases += [(12.3, "cli", phased_pair(0.2, 2.1))]
    for g, grid, pair in cases:
        w = GAMMA_NV * g * d * 1e-9
        times = np.linspace(0, 4 * math.pi / w, 64) if grid == "two-periods" else CLI_GRID
        grad = GradientSpec(gx=g, gy=0.0, d_nm=d, times_s=tuple(times))
        series = gradient_coherence(pair, grad, (0.0, 0.0), (d, 0.0))
        got = estimate_gradient(times, series, d)
        assert abs(got - g) / g < 1e-13, (g, grid, got)


def test_estimate_gradient_damped_amplitude():
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = np.linspace(0, 4 * math.pi / w, 64)
    series = 0.4 * np.cos(w * times)
    got = estimate_gradient(times, series, d)
    assert abs(got - g) / g < 1e-3


def test_estimate_gradient_rejects_weak_series():
    g, d = 10.0, 50.0
    w = GAMMA_NV * g * d * 1e-9
    times = np.linspace(0, 4 * math.pi / w, 64)
    with pytest.raises(EstimationError):
        estimate_gradient(times, 0.01 * np.cos(w * times), d)


def test_estimate_gradient_rejects_short_series():
    with pytest.raises(EstimationError):
        estimate_gradient(np.linspace(0, 1, 4), np.ones(4))


@pytest.mark.parametrize("g", [(12.0, 5.0), (13.7, 10.2), (6.0, 0.5)],
                         ids=["both", "close", "y-too-slow"])
def test_two_round_readout_equals_two_single_estimates(g):
    # x and y read as estimate_gradient reads one series: the same
    # numbers, or the same first error
    d = 50.0
    times = tuple(np.linspace(0, 2 * math.pi / (GAMMA_NV * g[0] * d * 1e-9), 64))
    grad = GradientSpec(gx=g[0], gy=g[1], d_nm=d, times_s=times)
    pair = ideal_bell_pair() * 0.8 + np.diag([0.2, 0, 0, 0])

    def single(axis):
        series = gradient_coherence(pair, grad, (0.0, 0.0), axis)
        return estimate_gradient(times, series, d)

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
    (_GRID + 1e-6 * _GRID[1] * np.random.default_rng(4).normal(size=32), np.cos(2e7 * _GRID),
     "times must be uniform"),
], ids=["repeated", "shuffled", "nan-time", "inf-sample", "jittered"])
def test_estimate_gradient_rejects_bad_readout_grids(times, series, message):
    with pytest.raises(EstimationError, match=message):
        estimate_gradient(times, series)


@pytest.mark.filterwarnings("error")
def test_two_round_readout_recovers_both_axes():
    d = 50.0
    cases = [((12.0, 5.0), "three-periods", ideal_bell_pair())]
    cases += [(g, "cli", ideal_bell_pair())
              for g in ((10.0, 10.0), (12.3, 11.1), (14.9, 13.2))]
    cases += [((12.3, 11.1), "cli", phased_pair(0.2, -0.9))]
    for g, grid, pair in cases:
        w = GAMMA_NV * max(g) * d * 1e-9
        times = (tuple(np.linspace(0, 6 * math.pi / w, 128)) if grid == "three-periods"
                 else CLI_GRID)
        grad = GradientSpec(gx=g[0], gy=g[1], d_nm=d, times_s=times)
        gx, gy = estimate_gradient_xy(pair, grad)
        assert abs(gx - g[0]) / g[0] < 1e-13, (g, grid, gx)
        assert abs(gy - g[1]) / g[1] < 1e-13, (g, grid, gy)


@pytest.mark.parametrize("gy, pair, message", [
    (0.0, ideal_bell_pair(), "half an oscillation period"),
    (1e-9, ideal_bell_pair(), "half an oscillation period"),
    (0.5, ideal_bell_pair(), "half an oscillation period"),
    (5.0, ideal_bell_pair(), None),   # exactly half a period
    (10.0, np.diag([1.0, 0, 0, 0]), "amplitude 0.000 too weak"),
    (10.0, phased_pair(0.049, 0.7), "amplitude 0.049 too weak"),
    (10.0, phased_pair(0.051, 0.7), None),
], ids=["gy-0", "gy-1e-9", "gy-0.5", "gy-half-gx", "no-coherence", "amp-0.049",
        "amp-0.051"])
def test_cli_grid_readout_verdicts(gy, pair, message):
    # which arms the `gradient` command reads at gx = 10 and which it
    # reports as errors; the accuracy of a read is checked above
    grad = GradientSpec(gx=10.0, gy=gy, d_nm=50.0, times_s=CLI_GRID)
    if message is None:
        gx_hat, gy_hat = estimate_gradient_xy(pair, grad)
        assert abs(gx_hat - 10.0) / 10.0 < 1e-6 and abs(gy_hat - gy) / gy < 1e-6
    else:
        with pytest.raises(EstimationError, match=message):
            estimate_gradient_xy(pair, grad)


def test_distributed_pair_coherence_shrinks_with_length():
    pair3 = max_entanglement_scan(ChainSpec(m_chain=3), NOISE, **FAST).pair_state
    pair7 = max_entanglement_scan(ChainSpec(m_chain=7), NOISE, **FAST).pair_state
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
