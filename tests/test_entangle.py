import math

import numpy as np
import pytest

from spinstar.chain import (
    ChainSpec,
    DisorderSpec,
    build_coupling_graph,
    single_excitation_matrix,
)
from spinstar.entangle import (
    TAU_REFINE_KT,
    EmResult,
    _golden_max,
    _pair_states,
    assert_sector_pairs,
    assert_sector_readings,
    concurrence,
    eof,
    eof_from_concurrence,
    max_entanglement_scan,
    pair_state_from_sector,
    register_pair_state,
)
from spinstar.experiments import distributed_pair
from spinstar.lindblad import (
    IntegrationError,
    NoiseSpec,
    SectorPropagator,
    default_window_s,
    evolve_chain,
    initial_transfer_state,
)
from spinstar.qops import ket2dm, partial_trace, pauli, tensor


def bell_psi_minus():
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return psi


def random_local_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_concurrence_maximally_entangled():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    assert abs(concurrence(ket2dm(psi)) - 1.0) < 1e-12


def test_concurrence_product_state():
    rho = ket2dm(np.array([1, 0, 0, 0], dtype=complex))
    assert concurrence(rho) == 0.0


@pytest.mark.parametrize("p", [0.8, 1 / 3, 0.5, 0.2])
def test_concurrence_werner_closed_form(p):
    rho = p * ket2dm(bell_psi_minus()) + (1 - p) * np.eye(4) / 4
    assert abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-12


def test_concurrence_rejects_invalid_density():
    with pytest.raises(ValueError):
        concurrence(np.eye(4))            # trace 4
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8)        # not two qubits


def test_eof_endpoints():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    assert abs(eof(ket2dm(psi)) - 1.0) < 1e-12
    assert eof(ket2dm(np.array([1, 0, 0, 0], dtype=complex))) == 0.0


def test_eof_at_half_concurrence():
    # independent binary-entropy evaluation
    x = (1 + math.sqrt(1 - 0.25)) / 2
    expected = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert abs(expected - 0.3545789) < 1e-7
    assert abs(eof_from_concurrence(0.5) - expected) < 1e-12


def test_eof_monotone_in_concurrence():
    grid = np.linspace(0, 1, 201)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and abs(values[-1] - 1.0) < 1e-12


def test_local_unitary_invariance():
    rng = np.random.default_rng(23)
    rho = 0.7 * ket2dm(bell_psi_minus()) + 0.3 * np.eye(4) / 4
    base_c, base_e = concurrence(rho), eof(rho)
    for _ in range(8):
        u = tensor(random_local_unitary(rng), random_local_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - base_c) < 1e-9
        assert abs(eof(rotated) - base_e) < 1e-9


def test_pair_state_at_time_zero():
    spec = ChainSpec(m_chain=3)
    traj = evolve_chain(spec, NoiseSpec(t2_s=1e-3), n_samples=5)
    pair = register_pair_state(traj, spec)[0]
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    ket0 = np.array([1, 0], dtype=complex)
    assert np.abs(pair - tensor(ket2dm(plus), ket2dm(ket0))).max() < 1e-12
    assert eof(pair) < 1e-12


def test_pair_state_sector_matches_full():
    noise = NoiseSpec(t2_s=1e-3)
    for m in (2, 3):
        spec = ChainSpec(m_chain=m)
        full = evolve_chain(spec, noise, method="full", n_samples=21,
                            rtol=1e-10, atol=1e-14)
        sect = evolve_chain(spec, noise, method="sector", n_samples=21,
                            rtol=1e-10, atol=1e-14)
        pf = register_pair_state(full)
        ps = register_pair_state(sect)
        dev = max(np.abs(a - b).max() for a, b in zip(pf, ps))
        assert dev < 1e-8


def test_pair_state_spec_mismatch_rejected():
    traj = evolve_chain(ChainSpec(m_chain=2), NoiseSpec(t2_s=1e-3), n_samples=5)
    with pytest.raises(ValueError):
        register_pair_state(traj, ChainSpec(m_chain=3))


def test_scan_refinement_properties():
    spec = ChainSpec(m_chain=3)
    result = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401)
    # e_m is the curve maximum (the refined point is inserted)
    assert result.e_m == result.curve_ef.max()
    assert 0.0 <= result.e_m <= 1.0
    assert result.interior
    coarse = np.delete(result.curve_ef,
                       int(np.argmax(result.curve_ef))).max()
    assert result.e_m >= coarse - 1e-15
    assert result.e_m - coarse < 0.01
    assert abs(result.tau_star_kt - spec.kappa_angular * result.tau_star_s) < 1e-9


def test_scan_noiseless_not_below_noisy():
    spec = ChainSpec(m_chain=3)
    clean = max_entanglement_scan(spec, NoiseSpec(t2_s=math.inf), n_samples=401)
    noisy = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401)
    assert clean.e_m >= noisy.e_m


def test_scan_agrees_between_sample_densities():
    spec = ChainSpec(m_chain=3)
    a = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401)
    b = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=801)
    assert abs(a.e_m - b.e_m) < 1e-3
    assert abs(a.tau_star_kt - b.tau_star_kt) < 0.05


def test_scan_window_extension_flag():
    # a window cut just short of the first maximum forces one doubling
    spec = ChainSpec(m_chain=3)
    full = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401)
    assert not full.extended
    t_star = full.tau_star_s
    short = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401,
                                  t_end=0.98 * t_star)
    # explicit windows are honored without extension and flag the edge
    assert not short.extended
    assert not short.interior


def test_scan_curve_qualitative_shape():
    # single dominant maximum, then decay: the top band is one contiguous
    # stretch, the curve starts at zero and the tail has clearly decayed
    result = max_entanglement_scan(ChainSpec(m_chain=3), NoiseSpec(t2_s=1e-3))
    ef = result.curve_ef
    assert ef[0] < 1e-12
    top = np.nonzero(ef >= 0.99 * ef.max())[0]
    assert len(top) == top.max() - top.min() + 1
    tail = ef[-len(ef) // 10:]
    assert tail.mean() < 0.5 * ef.max()
    assert result.interior


def test_loss_curves_per_position_are_distinct():
    # per-position loss curves differ visibly, not just at the maximum
    curves = []
    for lost in ({1}, {2}, {3}):
        res = max_entanglement_scan(ChainSpec(m_chain=5, lost_sites=lost),
                                    NoiseSpec(t2_s=1e-3), n_samples=401)
        curves.append(np.interp(np.linspace(0, 30, 200),
                                res.curve_kt, res.curve_ef))
    for a in range(len(curves)):
        for b in range(a + 1, len(curves)):
            assert np.abs(curves[a] - curves[b]).max() > 1e-3


def test_scan_auto_extends_once(monkeypatch):
    # shrink the automatic window so the first maximum falls in its last
    # 5% of samples; the scan must double the window and recover it
    import spinstar.lindblad as lb

    monkeypatch.setattr(lb, "WINDOW_KT", 14.0)
    spec = ChainSpec(m_chain=3)
    result = max_entanglement_scan(spec, NoiseSpec(t2_s=1e-3), n_samples=401)
    assert result.extended
    assert result.interior
    assert abs(result.tau_star_kt - 13.83) < 0.1


def test_concurrence_identity_on_random_sector_states():
    # a pair state without |11> weight has C = 2|rho_{01,10}| exactly
    rng = np.random.default_rng(11)
    for k in range(240):
        rank = 1 + k % 3
        g = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
        rho = np.zeros((4, 4), dtype=complex)
        rho[:3, :3] = g @ g.conj().T
        rho /= np.trace(rho).real
        assert abs(2 * abs(rho[1, 2]) - concurrence(rho)) < 1e-9


ORACLE_SPECS = [
    ChainSpec(m_chain=m, lost_sites=frozenset(lost))
    for m in (1, 2, 3, 4) for lost in ((), (1,))
] + [ChainSpec(m_chain=3, disorder=DisorderSpec(variance_nm2=0.25, seed=5))]


@pytest.mark.parametrize("t2", [math.inf, 1e-3])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"m{s.m_chain}"
                         + "".join(f"-lost{i}" for i in sorted(s.lost_sites))
                         + ("-disorder" if s.disorder else ""))
def test_scan_curve_matches_full_space_oracle(spec, t2):
    # the exact coarse pass against full-space RK45 read through the
    # general Wootters concurrence, on the same grid
    noise = NoiseSpec(t2_s=t2)
    n = 101
    result = max_entanglement_scan(spec, noise, n_samples=n)
    window = default_window_s(spec) * (2.0 if result.extended else 1.0)
    full = evolve_chain(spec, noise, t_end=window, n_samples=n, method="full",
                        rtol=1e-10, atol=1e-14)
    oracle = np.array([eof(p) for p in register_pair_state(full)])
    grid = np.delete(result.curve_ef,
                     np.searchsorted(result.curve_kt, result.tau_star_kt))
    assert np.abs(grid - oracle).max() < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sector_propagator_matches_full_space_at_tau_star(m):
    spec, noise = ChainSpec(m_chain=m), NoiseSpec(t2_s=1e-3)
    tau = max_entanglement_scan(spec, noise, n_samples=201).tau_star_s
    h1 = single_excitation_matrix(build_coupling_graph(spec))
    state = SectorPropagator(h1, noise).advance(initial_transfer_state(spec), tau)
    full = evolve_chain(spec, noise, t_end=tau, n_samples=2, method="full",
                        rtol=1e-10, atol=1e-14).states[-1]
    assert np.abs(state.to_full() - full).max() < 1e-8
    pair = distributed_pair(spec, noise, n_samples=201)
    assert np.abs(pair - partial_trace(full, (0, spec.n_sites - 1))).max() < 1e-8


@pytest.mark.parametrize("m, t2, e_m, tau_kt", [
    (11, 0.5e-3, 0.009741545907316837, 20.277985846817227),
    (31, 2e-3, 0.006239655077140471, 49.434651877195826),
])
def test_scan_reproduces_pinned_maxima(m, t2, e_m, tau_kt):
    result = max_entanglement_scan(ChainSpec(m_chain=m), NoiseSpec(t2_s=t2))
    assert abs(result.e_m - e_m) < 5e-8
    assert abs(result.tau_star_kt - tau_kt) < 1e-3


@pytest.mark.parametrize("kwargs", [
    {"n_samples": 0}, {"n_samples": 1}, {"t_end": 0.0}, {"t_end": -1e-4},
])
def test_scan_rejects_degenerate_grids(kwargs):
    with pytest.raises(ValueError):
        max_entanglement_scan(ChainSpec(m_chain=3), NoiseSpec(t2_s=1e-3), **kwargs)


REFINE_CASES = [
    (ChainSpec(m_chain=3), 201),
    (ChainSpec(m_chain=7, lost_sites=frozenset({3})), 201),
    (ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=5)), 201),
    (ChainSpec(m_chain=13), 201),
    (ChainSpec(m_chain=3), 2),      # [lo, hi] is the whole window
    (ChainSpec(m_chain=11), 3),
]


@pytest.mark.parametrize("t2", [math.inf, 1e-3])
@pytest.mark.parametrize("spec, n", REFINE_CASES,
                         ids=lambda v: f"n{v}" if isinstance(v, int) else
                         f"m{v.m_chain}-lost{len(v.lost_sites)}-dis{int(v.disorder is not None)}")
def test_refinement_matches_advance_and_wootters(spec, n, t2):
    # the oracle refines as the scan did before its probe series: each
    # golden-section point is an exact advance read through the general
    # Wootters concurrence
    noise = NoiseSpec(t2_s=t2)
    result = max_entanglement_scan(spec, noise, n_samples=n)
    window = default_window_s(spec) * (2.0 if result.extended else 1.0)
    traj = evolve_chain(spec, noise, t_end=window, n_samples=n)
    efs = np.array([eof(p) for p in register_pair_state(traj)])
    i_max = int(np.argmax(efs))
    k_lo = max(i_max - 1, 0)
    lo, hi = traj.times_s[k_lo], traj.times_s[min(i_max + 1, n - 1)]
    prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)

    def ef_at(t):
        return eof(pair_state_from_sector(prop.advance(traj.states[k_lo], t - lo)))

    tau, e_star = _golden_max(ef_at, lo, hi, TAU_REFINE_KT / spec.kappa_angular)
    if efs[i_max] >= e_star:
        tau, e_star = traj.times_s[i_max], efs[i_max]
    assert abs(result.e_m - e_star) < 1e-12
    assert abs(result.tau_star_kt - spec.kappa_angular * tau) <= TAU_REFINE_KT
    pair = pair_state_from_sector(prop.advance(traj.states[k_lo], result.tau_star_s - lo))
    assert np.abs(result.pair_state - pair).max() < 1e-12


def _support_state(rng, eigenvalues):
    """A pair state on the 3x3 support {00, 01, 10} with the given spectrum."""
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = (q * eigenvalues) @ q.conj().T
    rho[:3, :3] = (rho[:3, :3] + rho[:3, :3].conj().T) / 2
    return rho


def test_closed_form_check_agrees_with_eigvalsh():
    # states whose smallest eigenvalue sits 1e-9 on either side of -1e-7
    rng = np.random.default_rng(31)
    verdicts = []
    for k in range(400):
        low = -1e-7 + (1e-9 if k % 2 else -1e-9)
        mid = rng.uniform(0.05, 0.6)
        rho = _support_state(rng, np.array([low, mid, 1.0 - low - mid]))
        accept = np.linalg.eigvalsh(rho).min() >= -1e-7
        try:
            assert_sector_pairs(rho)
            passed = True
        except IntegrationError:
            passed = False
        assert passed == accept, k
        verdicts.append(accept)
    assert sum(verdicts) == 200   # both verdicts are exercised
    # a stack fails when any one state fails
    good = _support_state(rng, np.array([0.2, 0.3, 0.5]))
    bad = _support_state(rng, np.array([-1e-6, 0.3, 0.7 + 1e-6]))
    assert_sector_pairs(np.stack([good, good]))
    with pytest.raises(IntegrationError):
        assert_sector_pairs(np.stack([good, bad]))


def test_closed_form_check_rejects_what_the_identity_needs():
    # |11> weight or coherence, a skew part, a bad trace, a non-finite entry
    rng = np.random.default_rng(5)
    good = _support_state(rng, np.array([0.1, 0.3, 0.6]))
    assert_sector_pairs(good)
    weight = good * 0.9
    weight[3, 3] = 0.1                  # a valid state, but with |11> weight
    coherent = good.copy()
    coherent[3, 0] = coherent[0, 3] = 1e-12
    skew = good.copy()
    skew[0, 1] += 1e-6                  # not Hermitian
    lost = good.copy()
    lost[1, 2] = lost[2, 1] = np.nan
    for rho in (weight, coherent, skew, 1.01 * good, lost):
        with pytest.raises(IntegrationError):
            assert_sector_pairs(rho)
    with pytest.raises(ValueError):
        assert_sector_pairs(np.eye(2) / 2)


def _readings_of(rng, rho):
    """Sector readings whose pair state (:func:`_pair_states`) is `rho`, up
    to rounding, with tr B above the two register populations and a
    rounding-sized imaginary part on the real readings."""
    pop0, pop_last = rho[2, 2].real, rho[1, 1].real
    trace = pop0 + pop_last + rng.uniform(0.0, 0.3)
    vacuum = rho[0, 0].real - (trace - pop0 - pop_last)
    noise = 1j * rng.normal(scale=1e-15, size=3)
    return (vacuum, trace + noise[0], pop0 + noise[1], pop_last + noise[2],
            rho[2, 0], rho[1, 0], rho[2, 1])


def _verdict(check, *args):
    try:
        check(*args)
    except IntegrationError:
        return False
    return True


def test_readings_check_agrees_with_the_stack_check():
    # readings whose pair's smallest eigenvalue sits 1e-9 on either side
    # of -1e-7: checking the readings and checking the pairs built from
    # them give the same verdict, the eigvalsh one
    rng = np.random.default_rng(17)
    verdicts, stack = [], []
    for k in range(400):
        low = -1e-7 + (1e-9 if k % 2 else -1e-9)
        mid = rng.uniform(0.05, 0.6)
        readings = _readings_of(rng, _support_state(rng, np.array([low, mid, 1.0 - low - mid])))
        pair = _pair_states(*readings)
        accept = np.linalg.eigvalsh(pair).min() >= -1e-7
        assert _verdict(assert_sector_readings, *readings) == accept, k
        assert _verdict(assert_sector_pairs, pair) == accept, k
        verdicts.append(accept)
        stack.append(readings)
    assert sum(verdicts) == 200   # both verdicts are exercised
    # as stacks of readings: all good pass, one bad one fails the stack
    good = [r for r, ok in zip(stack, verdicts) if ok]
    columns = [np.array(c) for c in zip(*good)]
    assert_sector_readings(*columns)
    assert_sector_pairs(_pair_states(*columns))
    columns = [np.array(c) for c in zip(*good, stack[verdicts.index(False)])]
    for check, args in ((assert_sector_readings, columns),
                        (assert_sector_pairs, [_pair_states(*columns)])):
        with pytest.raises(IntegrationError):
            check(*args)


def test_readings_check_rejects_non_finite_readings_and_a_bad_trace():
    rng = np.random.default_rng(8)
    readings = _readings_of(rng, _support_state(rng, np.array([0.1, 0.3, 0.6])))
    assert_sector_readings(*readings)
    for i in range(7):
        corrupt = list(readings)
        corrupt[i] = np.nan
        with pytest.raises(IntegrationError, match="not finite"):
            assert_sector_readings(*corrupt)
    for i in (0, 1):     # the vacuum and tr B both enter the trace
        corrupt = list(readings)
        corrupt[i] = corrupt[i] + 1e-6
        with pytest.raises(IntegrationError, match="trace"):
            assert_sector_readings(*corrupt)


def test_refinement_checks_every_visited_state(monkeypatch):
    # the coarse grid is sound; a corrupted refinement table must not
    # reach the result
    probe_series = SectorPropagator.probe_series

    def corrupted(self, *args):
        series = probe_series(self, *args)

        def readings(offsets):
            values = series(offsets)
            values[:, 3] += 0.6     # B[0,last] beyond positivity
            return values
        return readings

    monkeypatch.setattr(SectorPropagator, "probe_series", corrupted)
    with pytest.raises(IntegrationError):
        max_entanglement_scan(ChainSpec(m_chain=3), NoiseSpec(t2_s=1e-3), n_samples=201)
