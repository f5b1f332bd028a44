import math

import numpy as np
import pytest

from spinstar import lindblad
from spinstar.chain import (
    ChainSpec,
    DisorderSpec,
    build_coupling_graph,
    single_excitation_matrix,
)
from spinstar.entangle import (
    EmResult,
    _check_support,
    _pair_state,
    _support,
    concurrence,
    eof,
    eof_from_concurrence,
    max_entanglement_scan,
    register_pair_state,
)
from spinstar.lindblad import (
    IntegrationError,
    NoiseSpec,
    SectorPropagator,
    SectorState,
    default_window_s,
    evolve_chain,
    initial_transfer_state,
)
from spinstar.qops import DENSITY_HERMITIAN_TOL, partial_trace, pauli

# oracle tolerance of the golden-section refinement, in kappa*t
ORACLE_TOL_KT = 1e-9


def ket2dm(psi):
    return np.outer(psi, np.conj(psi))


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x)).

    On plateaus the search drifts to the left edge, so the smallest
    maximizing abscissa within tolerance is reported.
    """
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def assert_sector_pairs(pairs):
    """The closed-form check on a stack of 4x4 register-pair states, shape
    (..., 4, 4): each must be finite, Hermitian and free of |11> weight,
    and its 3x3 support, off-diagonal entries averaged with their
    mirrors, goes through the trace and minor check of the readings."""
    pairs = np.asarray(pairs)
    if pairs.shape[-2:] != (4, 4):
        raise ValueError("register-pair states are 4x4")
    if not np.isfinite(pairs).all():
        raise IntegrationError("register-pair state is not finite")
    adj = np.swapaxes(pairs, -1, -2).conj()
    if np.abs(pairs - adj).max() > DENSITY_HERMITIAN_TOL:
        raise IntegrationError("register-pair state is not Hermitian")
    if np.any(pairs[..., 3, :]) or np.any(pairs[..., :, 3]):
        raise IntegrationError("register-pair state has |11> weight")
    _check_support(*(pairs[..., i, i].real for i in range(3)),
                   *((pairs[..., i, j] + adj[..., i, j]) / 2
                     for i, j in ((0, 1), (0, 2), (1, 2))))


def pair_state_from_sector(state):
    """Register-pair state of one SectorState, read entry by entry."""
    b, last = state.block11, state.n_sites - 1
    readings = np.array([np.trace(b), b[0, 0], b[last, last], b[0, last]])
    return _pair_state(*_support(state.block00, readings, state.block01[[0, last]]))


def check_readings(vacuum, readings, coh):
    """The scan's check of the register pairs of sector readings."""
    _check_support(*_support(vacuum, readings, coh))


def pair_states(vacuum, readings, coh):
    """The register-pair states of a stack of sector readings, shape (K, 4, 4)."""
    return np.stack([_pair_state(*_support(v, r, c))
                     for v, r, c in zip(vacuum, readings, coh)])


def sector_grid(prop, state0, t_end, n_samples):
    """SectorStates at every sample of the on_grid grid, whole blocks
    read through the identity probes."""
    n = state0.n_sites
    times, blocks, _ = prop.on_grid(state0.block11, t_end, n_samples, np.eye(n * n))
    coh = prop.coherences(state0.block01, times)
    return [SectorState(state0.block00, c, b) for c, b in zip(coh, blocks.reshape(-1, n, n))]


def advance(prop, block11, t):
    """`block11` carried by `t` seconds through the propagator's own carry."""
    vec = prop._carry(lindblad._real_form(block11).ravel(), t)
    return lindblad._hermitian_form(vec.reshape(block11.shape))


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
        u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - base_c) < 1e-9
        assert abs(eof(rotated) - base_e) < 1e-9


def test_pair_state_at_time_zero():
    spec = ChainSpec(m_chain=3)
    traj = evolve_chain(spec, NoiseSpec(t2_s=1e-3), n_samples=5)
    pair = register_pair_state(traj, spec)[0]
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    ket0 = np.array([1, 0], dtype=complex)
    assert np.abs(pair - np.kron(ket2dm(plus), ket2dm(ket0))).max() < 1e-12
    assert eof(pair) < 1e-12


def test_pair_state_sector_matches_full():
    noise = NoiseSpec(t2_s=1e-3)
    for m in (2, 3):
        spec = ChainSpec(m_chain=m)
        full = evolve_chain(spec, noise, n_samples=21, rtol=1e-10, atol=1e-14)
        prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
        states = sector_grid(prop, initial_transfer_state(spec), default_window_s(spec), 21)
        pf = register_pair_state(full)
        ps = [pair_state_from_sector(s) for s in states]
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
    full = evolve_chain(spec, noise, t_end=window, n_samples=n, rtol=1e-10, atol=1e-14)
    oracle = np.array([eof(p) for p in register_pair_state(full)])
    grid = np.delete(result.curve_ef,
                     np.searchsorted(result.curve_kt, result.tau_star_kt))
    assert np.abs(grid - oracle).max() < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sector_propagator_matches_full_space_at_tau_star(m):
    spec, noise = ChainSpec(m_chain=m), NoiseSpec(t2_s=1e-3)
    tau = max_entanglement_scan(spec, noise, n_samples=201).tau_star_s
    prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
    state0 = initial_transfer_state(spec)
    state = SectorState(state0.block00, prop.coherences(state0.block01, [tau])[0],
                        advance(prop, state0.block11, tau))
    full = evolve_chain(spec, noise, t_end=tau, n_samples=2,
                        rtol=1e-10, atol=1e-14).states[-1]
    assert np.abs(state.to_full() - full).max() < 1e-8
    pair = max_entanglement_scan(spec, noise, n_samples=201).pair_state
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
    # the oracle is a golden-section search on the scan's span, one Taylor
    # piece either side of the grid maximum within its grid neighbours,
    # to ORACLE_TOL_KT; each of its points is an exact advance read
    # through the general Wootters concurrence
    noise = NoiseSpec(t2_s=t2)
    result = max_entanglement_scan(spec, noise, n_samples=n)
    window = default_window_s(spec) * (2.0 if result.extended else 1.0)
    prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
    state0 = initial_transfer_state(spec)
    times = np.linspace(0.0, window, n)
    states = sector_grid(prop, state0, window, n)
    efs = np.array([eof(pair_state_from_sector(s)) for s in states])
    i_max = int(np.argmax(efs))
    k_lo = max(i_max - 1, 0)
    lo, hi = times[k_lo], times[min(i_max + 1, n - 1)]
    t_max, reach = times[i_max], 1.0 / prop.l1_norm
    start, stop = max(lo, t_max - reach), min(hi, t_max + reach)
    at_lo = states[k_lo]

    def state_at(t):
        return SectorState(at_lo.block00, prop.coherences(state0.block01, [t])[0],
                           advance(prop, at_lo.block11, t - lo))

    def ef_at(t):
        return eof(pair_state_from_sector(state_at(t)))

    tau, e_star = _golden_max(ef_at, start, stop, ORACLE_TOL_KT / spec.kappa_angular)
    if efs[i_max] >= e_star:
        tau, e_star = t_max, efs[i_max]
    assert abs(result.e_m - e_star) < 1e-12
    assert abs(result.tau_star_kt - spec.kappa_angular * tau) <= 1e-4
    pair = pair_state_from_sector(state_at(result.tau_star_s))
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
    """Sector readings (vacuum, probe readings, coherences) whose pair
    state is `rho`, up to rounding, with tr B above the two register
    populations and a rounding-sized imaginary part on the real readings."""
    pop0, pop_last = rho[2, 2].real, rho[1, 1].real
    trace = pop0 + pop_last + rng.uniform(0.0, 0.3)
    vacuum = rho[0, 0].real - (trace - pop0 - pop_last)
    noise = 1j * rng.normal(scale=1e-15, size=3)
    readings = np.array([trace + noise[0], pop0 + noise[1], pop_last + noise[2], rho[2, 1]])
    return vacuum, readings, np.array([rho[2, 0], rho[1, 0]])


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
        pair = _pair_state(*_support(*readings))
        accept = np.linalg.eigvalsh(pair).min() >= -1e-7
        assert _verdict(check_readings, *readings) == accept, k
        assert _verdict(assert_sector_pairs, pair) == accept, k
        verdicts.append(accept)
        stack.append(readings)
    assert sum(verdicts) == 200   # both verdicts are exercised
    # as stacks of readings: all good pass, one bad one fails the stack
    good = [r for r, ok in zip(stack, verdicts) if ok]
    columns = [np.array(c) for c in zip(*good)]
    check_readings(*columns)
    assert_sector_pairs(pair_states(*columns))
    columns = [np.array(c) for c in zip(*good, stack[verdicts.index(False)])]
    for check, args in ((check_readings, columns),
                        (assert_sector_pairs, [pair_states(*columns)])):
        with pytest.raises(IntegrationError):
            check(*args)


def _corrupt(readings, i, change):
    """`readings` with the i-th of its seven values, in the order vacuum,
    tr B, B[0,0], B[last,last], B[0,last], coherences of 0 and last,
    passed through `change`."""
    vacuum, probes, coh = readings[0], readings[1].copy(), readings[2].copy()
    if i == 0:
        vacuum = change(vacuum)
    elif i < 5:
        probes[i - 1] = change(probes[i - 1])
    else:
        coh[i - 5] = change(coh[i - 5])
    return vacuum, probes, coh


def test_readings_check_rejects_non_finite_readings_and_a_bad_trace():
    rng = np.random.default_rng(8)
    readings = _readings_of(rng, _support_state(rng, np.array([0.1, 0.3, 0.6])))
    check_readings(*readings)
    for i in range(7):
        with pytest.raises(IntegrationError, match="not finite"):
            check_readings(*_corrupt(readings, i, lambda v: np.nan))
    for i in (0, 1):     # the vacuum and tr B both enter the trace
        with pytest.raises(IntegrationError, match="trace"):
            check_readings(*_corrupt(readings, i, lambda v: v + 1e-6))


def test_refinement_checks_every_visited_state(monkeypatch):
    # the coarse grid is sound; a corrupted refinement table must not
    # reach the result: B[0,last] beyond positivity, or not finite
    probe_series = SectorPropagator.probe_series
    for shift in (0.6, np.nan):

        def corrupted(self, *args):
            table = probe_series(self, *args)
            table[:, 0, 3] += shift
            return table

        monkeypatch.setattr(SectorPropagator, "probe_series", corrupted)
        with pytest.raises(IntegrationError):
            max_entanglement_scan(ChainSpec(m_chain=3), NoiseSpec(t2_s=1e-3), n_samples=201)


def reference_tau_star(spec, noise, guess_kt):
    """(tau*, E_m) at 30 digits, tau* in kappa*t, from the root of
    d|B[0,last]|^2/dtau next to `guess_kt`.

    The complex Haken-Strobl generator L on row-major vec(B), in kappa*t
    units: one eigendecomposition makes B[0,last](tau) a sum of
    exponentials.
    """
    from mpmath import mp

    h1 = single_excitation_matrix(build_coupling_graph(spec))
    n = h1.shape[0]
    with mp.workdps(30):
        kappa = mp.mpf(spec.kappa_angular)
        h = mp.matrix([[mp.mpf(float(v)) / kappa for v in row] for row in h1])
        decay = -4 * mp.mpf(noise.rate) / kappa
        gen = mp.matrix(n * n, n * n)
        for i in range(n):
            for j in range(n):
                row = i * n + j
                for k in range(n):    # -i (h B - B h) + D o B
                    gen[row, k * n + j] += -1j * h[i, k]
                    gen[row, i * n + k] += 1j * h[k, j]
                if i != j:
                    gen[row, row] += decay
        rates, modes = mp.eig(gen)
        b0 = mp.matrix(n * n, 1)
        b0[0] = mp.mpf(1) / 2                  # B(0) = |0><0| / 2 ("plus")
        weights = mp.lu_solve(modes, b0)
        amp = [modes[n - 1, k] * weights[k] for k in range(n * n)]

        def b0l(tau, order=0):
            return mp.fsum(a * r ** order * mp.exp(r * tau) for a, r in zip(amp, rates))

        tau = mp.findroot(lambda t: mp.re(mp.conj(b0l(t)) * b0l(t, 1)), mp.mpf(guess_kt))
        c = 2 * abs(b0l(tau))
        p = (1 + mp.sqrt(1 - c * c)) / 2
        e_m = -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))
    return float(tau), float(e_m)


@pytest.mark.parametrize("m_chain, tau_ref", [(1, 9.843826112), (3, 13.828534934)])
def test_tau_star_matches_a_30_digit_reference(m_chain, tau_ref):
    # the default branch (dense at M = 1 and 3) at T2 = 1 ms
    spec, noise = ChainSpec(m_chain=m_chain), NoiseSpec(t2_s=1e-3)
    result = max_entanglement_scan(spec, noise)
    tau, e_m = reference_tau_star(spec, noise, result.tau_star_kt)
    assert abs(tau - tau_ref) < 1e-9
    assert abs(result.tau_star_kt - tau) < 1e-8
    assert abs(result.e_m - e_m) < 1e-13


@pytest.mark.parametrize("m_chain, t2, branch, tau_ref", [
    (1, math.inf, "dense", 9.850796397),
    (1, 1e-6, "dense", 0.2474932053),
    (1, math.inf, "chebyshev", 9.850796397),
    (1, 1e-6, "chebyshev", 0.2474932053),
    (1, 1e-3, "chebyshev", 9.843826112),
    (3, 1e-3, "chebyshev", 13.828534934),
])
def test_tau_star_reference_across_noise_and_branches(m_chain, t2, branch, tau_ref,
                                                      monkeypatch):
    # the Chebyshev branch is forced through the one crossover constant;
    # probe_series is shared by both
    if branch == "chebyshev":
        monkeypatch.setattr(lindblad, "DENSE_GRID_MAX", 0)
    spec, noise = ChainSpec(m_chain=m_chain), NoiseSpec(t2_s=t2)
    result = max_entanglement_scan(spec, noise)
    tau, e_m = reference_tau_star(spec, noise, result.tau_star_kt)
    assert abs(tau - tau_ref) < 1e-9
    assert abs(result.tau_star_kt - tau) < 1e-8
    assert abs(result.e_m - e_m) < 1e-13


RESTART_ARMS = [(ChainSpec(m_chain=m), 2001) for m in range(6, 12)] + [
    (ChainSpec(m_chain=12, lost_sites={5}), 2001),
    (ChainSpec(m_chain=9, disorder=DisorderSpec(variance_nm2=0.25, seed=4)), 2001),
    (ChainSpec(m_chain=9), 5),
]


@pytest.mark.parametrize("t2", [math.inf, 1e-3, 1e-6])
@pytest.mark.parametrize("spec, n_samples", RESTART_ARMS,
                         ids=lambda v: f"samples{v}" if isinstance(v, int) else
                         f"m{v.m_chain}-lost{len(v.lost_sites)}-dis{int(v.disorder is not None)}")
def test_dense_restart_matches_the_chebyshev_carry(spec, n_samples, t2, monkeypatch):
    # on dense arms the refinement starts from the grid by products with
    # its step P_1 and one exponential of an off-grid rest; the same scan
    # forced onto the Chebyshev branch carries the grid column at once
    noise = NoiseSpec(t2_s=t2)
    dense = max_entanglement_scan(spec, noise, n_samples=n_samples)
    if n_samples == 5:
        # a step past one Taylor piece, so the span starts off the grid
        prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
        assert prop.l1_norm * default_window_s(spec) / (n_samples - 1) > 1
    monkeypatch.setattr(lindblad, "DENSE_GRID_MAX", 0)
    sparse = max_entanglement_scan(spec, noise, n_samples=n_samples)
    assert abs(dense.tau_star_kt - sparse.tau_star_kt) <= 1e-12 * max(1.0, sparse.tau_star_kt)
    assert abs(dense.e_m - sparse.e_m) <= 1e-12
