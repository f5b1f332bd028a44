import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinstar import lindblad
from spinstar.chain import (
    ChainSpec,
    DisorderSpec,
    build_coupling_graph,
    single_excitation_matrix,
)
from spinstar.entangle import eof, max_entanglement_scan, sector_series
from spinstar.lindblad import (
    NoiseSpec,
    SectorPropagator,
    SectorState,
    _master_equation,
    default_window_s,
    evolve,
    evolve_chain,
    initial_transfer_state,
)
from spinstar.qops import partial_trace, pauli


def ket2dm(psi):
    return np.outer(psi, np.conj(psi))


def lindblad_rhs(rho, h, noise):
    """The right-hand side of the master equation at `rho`."""
    rho = np.asarray(rho, dtype=complex)
    return _master_equation(h, noise, rho.shape)(rho)


def sector_grid(spec, noise, t_end=None, n_samples=101, register_state="plus"):
    """(times, SectorStates) on the grid of SectorPropagator.on_grid: the
    whole block of every sample read through the identity probes, the
    vacuum coherences in closed form."""
    prop = _arm_propagator(spec, noise)
    state0 = initial_transfer_state(spec, register_state)
    n = state0.n_sites
    t_end = default_window_s(spec) if t_end is None else t_end
    times, blocks, _ = prop.on_grid(state0.block11, t_end, n_samples, np.eye(n * n))
    coh = prop.coherences(state0.block01, times)
    return times, [SectorState(state0.block00, c, b)
                   for c, b in zip(coh, blocks.reshape(-1, n, n))]


def advance(prop, block11, t):
    """`block11` carried by `t` seconds through the propagator's own carry."""
    vec = prop._carry(lindblad._real_form(block11).ravel(), t)
    return lindblad._hermitian_form(vec.reshape(block11.shape))


def series_at(table, span, offsets):
    """Readings of a probe_series `table` over [0, span] at `offsets`."""
    u = np.asarray(offsets, dtype=float) / (span / len(table))
    j = np.minimum(u.astype(int), len(table) - 1)
    powers = (u - j)[:, None] ** np.arange(table.shape[1])
    return np.einsum("mk,mkp->mp", powers, table[j])


def test_noise_spec_rate():
    assert NoiseSpec(t2_s=1e-3).rate == 1000.0
    assert NoiseSpec(t2_s=math.inf).rate == 0.0
    with pytest.raises(ValueError):
        NoiseSpec(t2_s=0.0)


def test_initial_state_full_form():
    spec = ChainSpec(m_chain=3)
    rho = initial_transfer_state(spec).to_full()
    assert rho.shape == (32, 32)
    psi_diag = np.sqrt(np.diag(rho).real)
    nonzero = np.nonzero(psi_diag > 1e-12)[0]
    assert list(nonzero) == [0, 16]   # |00000> and |10000>
    assert np.allclose(psi_diag[nonzero], 1 / np.sqrt(2))
    # pure state
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_initial_state_sector_form():
    state = initial_transfer_state(ChainSpec(m_chain=4))
    assert state.block00 == 0.5
    assert np.allclose(state.block01, [0.5, 0, 0, 0, 0, 0])
    expected = np.zeros((6, 6))
    expected[0, 0] = 0.5
    assert np.allclose(state.block11, expected)
    assert state.block00 + np.trace(state.block11).real == 1.0


def test_initial_state_excitation_mode():
    state = initial_transfer_state(ChainSpec(m_chain=2), register_state="one")
    assert state.block00 == 0.0
    assert np.abs(state.block01).max() == 0.0
    assert state.block11[0, 0] == 1.0


def test_sector_full_roundtrip():
    # to_full places the blocks on the vacuum and the one-excitation states
    spec = ChainSpec(m_chain=2)
    state = initial_transfer_state(spec)
    rho = state.to_full()
    idx = [2 ** (state.n_sites - 1 - i) for i in range(state.n_sites)]
    assert abs(rho[0, 0] - state.block00) < 1e-14
    assert np.abs(rho[idx, 0] - state.block01).max() < 1e-14
    assert np.abs(rho[np.ix_(idx, idx)] - state.block11).max() < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_rhs_zero_hamiltonian_zero_noise():
    rho = np.eye(4, dtype=complex) / 4
    out = lindblad_rhs(rho, np.zeros((4, 4)), NoiseSpec(t2_s=math.inf))
    assert np.abs(out).max() == 0.0


def test_rhs_single_qubit_dephasing_rate():
    # hand-expanded: Z rho Z - rho kills off-diagonals twice over
    gamma = 1000.0
    rho = ket2dm(np.array([1, 1], dtype=complex) / np.sqrt(2))
    out = lindblad_rhs(rho, np.zeros((2, 2)), NoiseSpec(t2_s=1 / gamma))
    z = pauli("z")
    by_hand = gamma * (z @ rho @ z - rho)
    assert np.abs(out - by_hand).max() < 1e-12 * gamma
    assert abs(out[0, 1] + 2 * gamma * rho[0, 1]) < 1e-9


def test_rhs_fixed_point_maximally_mixed():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    out = lindblad_rhs(np.eye(8, dtype=complex) / 8, h, NoiseSpec(t2_s=1e-3))
    assert np.abs(out).max() < 1e-12


def test_rhs_is_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    h = (a + a.conj().T) / 2
    out = lindblad_rhs(rho, h, NoiseSpec(t2_s=1e-3))
    assert abs(np.trace(out)) < 1e-12 * np.abs(out).max()
    assert np.abs(out - out.conj().T).max() < 1e-12 * np.abs(out).max()


def test_single_qubit_coherence_closed_form():
    # coherence decays as exp(-2 Gamma t) under the sigma_z dissipator
    t2 = 1e-3
    gamma = 1 / t2
    rho0 = ket2dm(np.array([1, 1], dtype=complex) / np.sqrt(2))
    traj = evolve(rho0, np.zeros((2, 2)), NoiseSpec(t2_s=t2),
                  t_end=3 * t2, n_samples=301)
    for t, rho in zip(traj.times_s, traj.states):
        expected = 0.5 * math.exp(-2 * gamma * t)
        assert abs(rho[0, 1].real - expected) < 1e-6 * expected
        assert abs(rho[0, 1].imag) < 1e-12


def test_unitary_limit_preserves_purity():
    spec = ChainSpec(m_chain=2)
    traj = evolve_chain(spec, NoiseSpec(t2_s=math.inf), n_samples=51)
    for rho in traj.states:
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-6


def test_sector_matches_full_evolution():
    noise = NoiseSpec(t2_s=1e-3)
    for m, lost in ((2, frozenset()), (3, frozenset()), (3, frozenset({2}))):
        spec = ChainSpec(m_chain=m, lost_sites=lost)
        full = evolve_chain(spec, noise, n_samples=41, rtol=1e-10, atol=1e-14)
        _, states = sector_grid(spec, noise, n_samples=41)
        dev = max(np.abs(a - s.to_full()).max() for a, s in zip(full.states, states))
        assert dev < 1e-8


def test_sector_unitary_block_is_schroedinger():
    # with no noise the one-excitation block evolves as a wavefunction
    spec = ChainSpec(m_chain=2)
    h1 = single_excitation_matrix(build_coupling_graph(spec))
    times, states = sector_grid(spec, NoiseSpec(t2_s=math.inf), n_samples=21,
                                register_state="one")
    w, v = np.linalg.eigh(h1)
    c0 = np.zeros(4, dtype=complex)
    c0[0] = 1.0
    for t, state in zip(times, states):
        c = (v * np.exp(-1j * w * t)) @ (v.conj().T @ c0)
        assert np.abs(state.block11 - np.outer(c, c.conj())).max() < 1e-7


def test_long_chain_sector_run():
    spec = ChainSpec(m_chain=20)
    noise = NoiseSpec(t2_s=1e-3)
    times, states = sector_grid(spec, noise, n_samples=101)
    assert states[0].n_sites == 22
    for state in states[:: 20]:
        b = state.block11
        assert abs(state.block00 + np.trace(b).real - 1.0) < 1e-6
        assert np.abs(b - b.conj().T).max() < 1e-6
        assert np.linalg.eigvalsh(b).min() > -1e-6
    # the strided grid agrees with one exact step from t = 0
    prop = _arm_propagator(spec, noise)
    state0 = initial_transfer_state(spec)
    for k in (7, 58, 100):
        direct = advance(prop, state0.block11, times[k])
        assert np.abs(states[k].block11 - direct).max() < 1e-12


@pytest.mark.parametrize("t2", [math.inf, 1e-3])
@pytest.mark.parametrize("spec", [
    ChainSpec(m_chain=5, lost_sites={2}),
    ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=3)),
], ids=["lossy", "disordered"])
def test_sector_trajectory_matches_scan_grid(spec, t2):
    # the scan carries four probe rows; the whole blocks of the same grid,
    # read through the identity probes and the general Wootters
    # concurrence, give the same E_F
    noise = NoiseSpec(t2_s=t2)
    n = 401
    result = max_entanglement_scan(spec, noise, n_samples=n)
    window = default_window_s(spec) * (2.0 if result.extended else 1.0)
    _, states = sector_grid(spec, noise, t_end=window, n_samples=n)
    last = spec.n_sites - 1
    e_f = np.array([eof(partial_trace(s.to_full(), (0, last))) for s in states])
    grid = np.delete(result.curve_ef,
                     np.searchsorted(result.curve_kt, result.tau_star_kt))
    assert np.abs(grid - e_f).max() < 1e-12


def _arm_propagator(spec, noise):
    return SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)


def _grid_coherence_error(spec, noise, window, n_samples):
    # stride products against one exponential per grid time, for a seeded
    # block01 that weights every mode; relative to the largest coherence
    prop = _arm_propagator(spec, noise)
    n = prop.energies.size
    rng = np.random.default_rng(n)
    block01 = rng.normal(size=n) + 1j * rng.normal(size=n)
    times = np.linspace(0.0, window, n_samples)
    k = math.isqrt(n_samples - 1) + 1   # the stride of on_grid
    sites = [0, n - 1]
    ref = prop.coherences(block01, times)[:, sites]
    got = prop.grid_coherences(block01, times[1], n_samples, k, sites)
    assert got.shape == ref.shape
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("t2", [math.inf, 1e-3, 1e-6])
def test_grid_coherences_match_coherences(t2):
    noise = NoiseSpec(t2_s=t2)
    specs = [ChainSpec(m_chain=m) for m in range(1, 32)] + [
        ChainSpec(m_chain=7, lost_sites={3}),
        ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=3))]
    for spec in specs:
        for n_samples in (2001, 402):
            error = _grid_coherence_error(spec, noise, default_window_s(spec), n_samples)
            assert error < 1e-13, (spec, n_samples)


def test_grid_coherences_on_an_extended_window():
    spec, noise = ChainSpec(m_chain=27), NoiseSpec(t2_s=math.inf)
    assert max_entanglement_scan(spec, noise, n_samples=201).extended
    assert _grid_coherence_error(spec, noise, 2.0 * default_window_s(spec), 201) < 1e-13


def test_branch_by_arm_size():
    # n = M + 2 sites less the lost ones; the one crossover sits at
    # n^2 = 169, and only the Chebyshev branch holds a CSR L_R
    noise = NoiseSpec(t2_s=1e-3)
    for m in range(1, 16):
        prop = _arm_propagator(ChainSpec(m_chain=m), noise)
        assert prop.dense_grid == (m <= 11), m
        assert isinstance(prop.liouvillian, np.ndarray) == (m <= 11), m
    lossy = _arm_propagator(ChainSpec(m_chain=12, lost_sites={4}), noise)
    assert lossy.dense_grid and isinstance(lossy.liouvillian, np.ndarray)
    assert not _arm_propagator(ChainSpec(m_chain=13, lost_sites={4}), noise).dense_grid


DENSE_ORACLE_ARMS = [ChainSpec(m_chain=m) for m in range(1, 14)] + [
    ChainSpec(m_chain=7, lost_sites={3}),
    ChainSpec(m_chain=12, lost_sites={2, 9}),
    ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=3)),
    ChainSpec(m_chain=13, disorder=DisorderSpec(variance_nm2=0.25, seed=8)),
]


@pytest.mark.parametrize("t2", [math.inf, 1e-3])
@pytest.mark.parametrize("spec", DENSE_ORACLE_ARMS,
                         ids=lambda s: f"m{s.m_chain}-lost{len(s.lost_sites)}"
                                       f"-dis{int(s.disorder is not None)}")
def test_dense_branch_matches_expm_multiply(spec, t2, monkeypatch):
    # every arm up to two sizes past each crossover, on both branches
    noise = NoiseSpec(t2_s=t2)
    props = []
    for limit in (10 ** 6, 0):
        monkeypatch.setattr(lindblad, "DENSE_GRID_MAX", limit)
        props.append(_arm_propagator(spec, noise))
    dense, sparse = props
    assert dense.dense_grid and not sparse.dense_grid
    state0 = initial_transfer_state(spec)
    n = state0.n_sites
    window = default_window_s(spec)
    probes = np.random.default_rng(spec.m_chain).normal(size=(n * n, 3))
    # the identity probes read whole blocks
    for rows in (np.eye(n * n), probes):
        t_d, v_d, k_d = dense.on_grid(state0.block11, window, 201, rows)
        t_s, v_s, k_s = sparse.on_grid(state0.block11, window, 201, rows)
        assert np.array_equal(t_d, t_s) and k_d == k_s
        assert np.abs(v_d - v_s).max() < 1e-12 * max(1.0, np.abs(v_s).max())
        # the blocks each grid keeps at its long strides, read by restart
        for sample in range(0, 201, k_d):
            a, b = dense.restart(sample, t_d[sample]), sparse.restart(sample, t_s[sample])
            assert np.abs(a - b).max() < 1e-12
    for t in (0.0, window / 200, 0.37 * window):
        a, b = advance(dense, state0.block11, t), advance(sparse, state0.block11, t)
        assert np.abs(a - b).max() < 1e-12


def test_dense_branch_matches_full_space_on_random_arms():
    # seeded random short arms against the full-space RK45 oracle at A3's bound
    rng = np.random.default_rng(20240611)
    for _ in range(5):
        m = int(rng.integers(1, 5))
        lost = frozenset({int(rng.integers(1, m + 1))}) if rng.random() < 0.5 else frozenset()
        disorder = (DisorderSpec(variance_nm2=float(rng.uniform(0.05, 0.5)),
                                 seed=int(rng.integers(2 ** 31)))
                    if rng.random() < 0.5 else None)
        t2 = math.inf if rng.random() < 0.3 else float(rng.uniform(0.5e-3, 2e-3))
        register = str(rng.choice(["plus", "one"]))
        spec = ChainSpec(m_chain=m, lost_sites=lost, disorder=disorder)
        noise = NoiseSpec(t2_s=t2)
        prop = _arm_propagator(spec, noise)
        assert prop.dense_grid
        kwargs = dict(n_samples=21, register_state=register)
        full = evolve_chain(spec, noise, rtol=1e-10, atol=1e-14, **kwargs)
        _, states = sector_grid(spec, noise, **kwargs)
        dev = max(np.abs(a - s.to_full()).max() for a, s in zip(full.states, states))
        assert dev < 1e-8, (spec, t2, register)
        k = int(rng.integers(1, 21))
        state0 = initial_transfer_state(spec, register)
        t = full.times_s[k]
        direct = SectorState(state0.block00, prop.coherences(state0.block01, [t])[0],
                             advance(prop, state0.block11, t)).to_full()
        assert np.abs(direct - full.states[k]).max() < 1e-8, (spec, t2, register)


KERNEL_ARMS = [ChainSpec(m_chain=m) for m in range(1, 12)] + [
    ChainSpec(m_chain=7, lost_sites={3}),
    ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=3)),
]


def _kernel_times(spec):
    # dt, the stride K dt and the window of the default scan grid
    window = default_window_s(spec)
    dt = window / (lindblad.N_SAMPLES_DEFAULT - 1)
    return dt, (math.isqrt(lindblad.N_SAMPLES_DEFAULT - 1) + 1) * dt, window


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


@pytest.mark.parametrize("t2", [math.inf, 1e-3, 1e-6])
@pytest.mark.parametrize("spec", KERNEL_ARMS,
                         ids=lambda s: f"m{s.m_chain}-lost{len(s.lost_sites)}"
                                       f"-dis{int(s.disorder is not None)}")
def test_dense_exponential_matches_scipy_expm(spec, t2):
    # scipy's expm, kept as an oracle only; over a whole window it is
    # itself off by up to 8e-13 relative (M = 7 with site 3 lost, against
    # an extended-precision series), so the window gets a wider bound
    from scipy.linalg import expm

    prop = _arm_propagator(spec, NoiseSpec(t2_s=t2))
    for t, bound in zip(_kernel_times(spec), (1e-13, 1e-13, 1e-12)):
        want = expm(prop.liouvillian * t)
        got = lindblad._expm(prop.liouvillian, t, prop.l1_norm)
        assert _norm1(got - want) <= bound * _norm1(want), t


@pytest.mark.parametrize("m, t2", [(1, math.inf), (1, 1e-9), (1, 1e-12), (3, 1e-9), (3, 1e-12)])
def test_dense_exponential_matches_30_digit_reference(m, t2):
    # at T2 = 1 ps ||L_R K dt||_1 reaches 2e7 and takes 25 squarings, where
    # scipy's expm is off by 1e-9; the kernel keeps the conserved trace
    # row u = vec(I) of L_R (u^T L_R = 0) to rounding.  The window at
    # M = 3 is left out: its 30-digit squarings cost seconds
    from mpmath import mp

    spec = ChainSpec(m_chain=m)
    prop = _arm_propagator(spec, NoiseSpec(t2_s=t2))
    n = math.isqrt(prop.liouvillian.shape[0])
    trace_row = np.eye(n).ravel()
    times = _kernel_times(spec)
    for t in times if m == 1 else times[:2]:
        with mp.workdps(30):
            want = mp.expm(mp.matrix(prop.liouvillian.tolist()) * mp.mpf(t))
            want = np.array(want.tolist(), dtype=float)
        got = lindblad._expm(prop.liouvillian, t, prop.l1_norm)
        assert _norm1(got - want) <= 1e-14 * _norm1(want), t
        assert np.abs(trace_row @ got - trace_row).max() <= 1e-14, t


PROBE_SERIES_ARMS = [
    ChainSpec(m_chain=3),
    ChainSpec(m_chain=7, lost_sites={3}),
    ChainSpec(m_chain=5, disorder=DisorderSpec(variance_nm2=0.25, seed=3)),
    ChainSpec(m_chain=13),
]


@pytest.mark.parametrize("limit", [10 ** 6, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("t2", [math.inf, 1e-3])
@pytest.mark.parametrize("spec", PROBE_SERIES_ARMS,
                         ids=lambda s: f"m{s.m_chain}-lost{len(s.lost_sites)}"
                                       f"-dis{int(s.disorder is not None)}")
def test_probe_series_matches_advance(spec, t2, limit, monkeypatch):
    # random points of spans of one piece and of several, against an exact
    # advance from the start of the span
    monkeypatch.setattr(lindblad, "DENSE_GRID_MAX", limit)
    noise = NoiseSpec(t2_s=t2)
    prop = _arm_propagator(spec, noise)
    assert prop.dense_grid == (limit > 0)
    window = default_window_s(spec)
    start = advance(prop, initial_transfer_state(spec).block11, 0.3 * window)
    n = start.shape[0]
    rng = np.random.default_rng(spec.m_chain)
    probes = rng.normal(size=(n * n, 4))
    for span, several in ((window / 1000, False), (window / 20, True), (window, True)):
        table = prop.probe_series(start, span, probes)
        assert (len(table) > 1) == several
        assert table.shape[1:] == (lindblad.SERIES_DEGREE + 1, 4)
        offsets = np.concatenate([[0.0, span], rng.uniform(0.0, span, 8)])
        want = np.array([probes.T @ advance(prop, start, t).ravel() for t in offsets])
        got = series_at(table, span, offsets)
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


_CHEBYSHEV_ARMS = [
    ChainSpec(m_chain=12),
    ChainSpec(m_chain=15, lost_sites={4}),
    ChainSpec(m_chain=13, disorder=DisorderSpec(variance_nm2=0.25, seed=8)),
]
CHEBYSHEV_CASES = [(spec, t2) for spec in _CHEBYSHEV_ARMS
                   for t2 in (math.inf, 1e-3, 1e-5, 1e-6, 1e-7)]
CHEBYSHEV_CASES += [(ChainSpec(m_chain=21), 1e-3)]


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _complex_liouvillian(spec, noise):
    # the Haken-Strobl generator on row-major vec(B), built here rather
    # than read from the propagator, which carries the real form
    h = sp.csr_matrix(single_excitation_matrix(build_coupling_graph(spec)))
    n = h.shape[0]
    eye = sp.identity(n, format="csr")
    damping = np.full((n, n), -4.0 * noise.rate)
    np.fill_diagonal(damping, 0.0)
    # vec(h B) = (h x I) vec(B), vec(B h) = (I x h^T) vec(B)
    return (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
            + sp.diags(damping.ravel())).tocsr()


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def test_real_form_round_trip_is_an_isometry():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 33):
        b = _random_hermitian(rng, n)
        r = lindblad._real_form(b)
        assert r.dtype == float
        assert np.abs(lindblad._hermitian_form(r) - b).max() <= 1e-15 * np.abs(b).max()
        assert abs(np.linalg.norm(r) - np.linalg.norm(b)) <= 1e-14 * np.linalg.norm(b)
        # every real n x n matrix is the real form of one Hermitian block
        r = rng.normal(size=(n, n))
        back = lindblad._hermitian_form(r)
        assert np.array_equal(back, back.conj().T)
        assert np.abs(lindblad._real_form(back) - r).max() <= 1e-15 * np.abs(r).max()


@pytest.mark.parametrize("limit", [10 ** 6, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("spec", [
    ChainSpec(m_chain=1), ChainSpec(m_chain=6), ChainSpec(m_chain=12),
    ChainSpec(m_chain=9, lost_sites={2, 5}),
    ChainSpec(m_chain=7, disorder=DisorderSpec(variance_nm2=0.25, seed=3)),
], ids=lambda s: f"m{s.m_chain}-lost{len(s.lost_sites)}-dis{int(s.disorder is not None)}")
def test_real_generator_matches_complex_liouvillian(spec, limit, monkeypatch):
    # L_R vec(R) is the real form of L vec(B) on random Hermitian blocks
    monkeypatch.setattr(lindblad, "DENSE_GRID_MAX", limit)
    rng = np.random.default_rng(spec.m_chain)
    for t2 in (math.inf, 1e-3, 1e-6):
        noise = NoiseSpec(t2_s=t2)
        prop = _arm_propagator(spec, noise)
        assert prop.dense_grid == (limit > 0)
        liouvillian = _complex_liouvillian(spec, noise)
        n = spec.n_sites
        for _ in range(3):
            b = _random_hermitian(rng, n)
            got = lindblad._hermitian_form(
                (prop.liouvillian @ lindblad._real_form(b).ravel()).reshape(n, n))
            want = (liouvillian @ b.ravel()).reshape(n, n)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), t2


def test_kernel_step_matches_sparse_product():
    # one call of the compiled CSR kernel adds 2Y v to s u in place
    rng = np.random.default_rng(3)
    spec = ChainSpec(m_chain=12)
    y = _arm_propagator(spec, NoiseSpec(t2_s=1e-3)).liouvillian * 1e-6
    u, v = rng.normal(size=(2, y.shape[0]))
    for sign in (1.0, -1.0):
        out = sign * u
        lindblad._add_matvec(y * 2.0, v, out)
        assert np.abs(out - (2.0 * (y @ v) + sign * u)).max() <= 1e-14 * np.abs(out).max()
        terms = lindblad._chebyshev_terms(y, y * 2.0, sign, v, 4)
        want = [v, y @ v]
        want += [2.0 * (y @ want[1]) + sign * want[0]]
        want += [2.0 * (y @ want[2]) + sign * want[1]]
        assert np.abs(terms - np.array(want)).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("t2, sign", [(1e-3, 1.0), (1e-7, -1.0)])
def test_chebyshev_recurrence_of_either_sign(t2, sign):
    # a window-long piece has imaginary foci at T2 = 1 ms (recurrence
    # P_{k+1} = 2Y P_k + P_{k-1}) and real ones at 0.1 us (T_k, sign -1)
    from scipy.linalg import expm

    spec = ChainSpec(m_chain=12)
    noise = NoiseSpec(t2_s=t2)
    prop = _arm_propagator(spec, noise)
    window = default_window_s(spec)
    assert prop._chebyshev(window, np.ones(1))[1] == sign
    state0 = initial_transfer_state(spec)
    got = advance(prop, state0.block11, window).ravel()
    want = expm(_complex_liouvillian(spec, noise).toarray() * window) @ state0.block11.ravel()
    assert _close(got, want)


def test_propagator_rejects_a_non_hermitian_problem():
    h1 = single_excitation_matrix(build_coupling_graph(ChainSpec(m_chain=2)))
    for bad in (h1 * 1j, h1 + np.triu(h1)):
        with pytest.raises(ValueError):
            SectorPropagator(bad, NoiseSpec())


@pytest.mark.parametrize("spec, t2", CHEBYSHEV_CASES,
                         ids=lambda v: f"t2-{v:g}" if isinstance(v, float) else
                         f"m{v.m_chain}-lost{len(v.lost_sites)}-dis{int(v.disorder is not None)}")
def test_chebyshev_branch_matches_dense_expm(spec, t2):
    # the sparse branch against dense scipy.linalg.expm of L: on_grid with
    # probe rows on 2, 201 and 2001 samples of the default window and 21
    # samples of five windows, with the identity probes (whole blocks) on
    # 201, advance, and probe_series.
    # Rounding adds up over the pieces: at T2 = 0.1 us five windows are
    # about 1e4 e-folds of the coherences, some 1600 pieces, and the error
    # there reaches 1.5e-12, so that grid runs down to T2 = 1 us
    from scipy.linalg import expm

    noise = NoiseSpec(t2_s=t2)
    prop = _arm_propagator(spec, noise)
    assert not prop.dense_grid
    liouvillian = _complex_liouvillian(spec, noise).toarray()
    state0 = initial_transfer_state(spec)
    b0 = state0.block11.ravel()
    n = state0.n_sites
    window = default_window_s(spec)
    rng = np.random.default_rng(spec.m_chain)
    # unit rows, so a reading is on the scale of the entries of B
    probes = rng.normal(size=(n * n, 3))
    probes /= np.linalg.norm(probes, axis=0)
    grids = [(2, window), (201, window), (2001, window)]
    if t2 >= 1e-6:
        grids.append((21, 5 * window))
    for n_samples, t_end in grids:
        times, readings, k = prop.on_grid(state0.block11, t_end, n_samples, probes)
        picks = sorted({1, n_samples // 3, n_samples - 1, int(rng.integers(n_samples))})
        want = np.array([expm(liouvillian * times[i]) @ b0 for i in picks])
        assert _close(readings[picks], want @ probes), (n_samples, t_end)
        # the block the grid keeps at its last long stride, read by restart
        i = (n_samples - 1) // k
        assert _close(prop.restart(i * k, times[i * k]).ravel(),
                      expm(liouvillian * (i * k * times[1])) @ b0)
        if n_samples == 201:
            _, blocks, _ = prop.on_grid(state0.block11, t_end, n_samples, np.eye(n * n))
            assert _close(blocks[picks], want)
    start = advance(prop, state0.block11, 0.3 * window)
    b_start = start.ravel()
    assert _close(b_start, expm(liouvillian * (0.3 * window)) @ b0)
    for t in (0.0, window / 2000, 2 * window):
        assert _close(advance(prop, start, t).ravel(), expm(liouvillian * t) @ b_start)
    table = prop.probe_series(start, window / 10, probes)
    offsets = np.concatenate([[window / 10], rng.uniform(0.0, window / 10, 3)])
    want = np.array([expm(liouvillian * t) @ b_start for t in offsets])
    assert _close(series_at(table, window / 10, offsets), want @ probes)


def test_chebyshev_pieces_stay_short_on_long_windows():
    # one series over 100 windows would need ~9e4 orders, an N x n^2
    # working set of ~0.3 GB at M = 12; the rounding-growth bound cuts
    # the stride into pieces, so the memory stays that of a short piece
    import tracemalloc

    from scipy.linalg import expm

    spec = ChainSpec(m_chain=12)
    noise = NoiseSpec(t2_s=math.inf)
    prop = _arm_propagator(spec, noise)
    state0 = initial_transfer_state(spec)
    n = state0.n_sites
    t_end = 100 * default_window_s(spec)
    tracemalloc.start()
    _, blocks, _ = prop.on_grid(state0.block11, t_end, 2, np.eye(n * n))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10e6
    assert _close(blocks[-1],
                  expm(_complex_liouvillian(spec, noise).toarray() * t_end)
                  @ state0.block11.ravel())


def test_chebyshev_branch_matches_expm_multiply_at_m31():
    # the longest default arm, too large for a dense oracle, against
    # scipy's action of the exponential
    from scipy.sparse.linalg import expm_multiply

    spec = ChainSpec(m_chain=31)
    noise = NoiseSpec(t2_s=1e-3)
    prop = _arm_propagator(spec, noise)
    state0 = initial_transfer_state(spec)
    b0 = state0.block11.ravel()
    n = state0.n_sites
    probes = np.random.default_rng(31).normal(size=(n * n, 4))
    probes /= np.linalg.norm(probes, axis=0)
    times, readings, _ = prop.on_grid(state0.block11, default_window_s(spec), 2001, probes)
    picks = [1, 700, 1999, 2000]
    liouvillian = _complex_liouvillian(spec, noise)
    want = np.array([expm_multiply(liouvillian * times[i], b0) for i in picks])
    assert _close(readings[picks], want @ probes)
    assert _close(advance(prop, state0.block11, times[700]).ravel(), want[1])


def test_chebyshev_takes_the_piece_count_with_fewest_products():
    # one carry over a default window at T2 = 10 us: a piece's order is set
    # by its decay, so the first count whose growth passes is not the
    # cheapest, and the search goes on to the count with the fewest
    # products L_R @ v
    spec = ChainSpec(m_chain=31)
    prop = _arm_propagator(spec, NoiseSpec(t2_s=1e-5))
    span, fractions = default_window_s(spec), np.ones(1)
    r, _, _, _, coef = prop._chebyshev(span, fractions)
    width = float(prop.energies.max() - prop.energies.min())
    count = max(1, math.ceil(2.0 * prop.gamma * span / lindblad.CHEB_DECAY_MAX))
    products = {}
    while count <= 4 * r:
        _, table, growth = lindblad._chebyshev_piece(width, prop.gamma, span / count, fractions)
        if growth <= lindblad.CHEB_GROWTH_MAX:
            products[count] = count * table.shape[1]
        count *= 2
    assert min(products) < r
    assert r * coef.shape[1] == min(products.values())


def test_excitation_number_is_flat():
    spec = ChainSpec(m_chain=3)
    _, _, _, n_exc, _ = sector_series(spec, NoiseSpec(t2_s=1e-3), n_samples=101)
    assert np.abs(n_exc - 0.5).max() < 1e-6


def test_density_invariants_along_trajectory():
    spec = ChainSpec(m_chain=3)
    traj = evolve_chain(spec, NoiseSpec(t2_s=1e-3), n_samples=51)
    for rho in traj.states[::10]:
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.abs(rho - rho.conj().T).max() < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-7


def test_self_convergence_when_tolerance_tightens():
    # sampled states move by about the looser local tolerance (a small
    # accumulation factor on top of the per-step bound).  RK45 controls
    # the RMS error over all 4^n entries, of which only the (n+1)^2 in
    # the 0+1 sectors move, so one entry may carry sqrt(4^n/(n+1)^2)
    # times the error it would on the (n+1)^2 sector entries alone
    spec = ChainSpec(m_chain=2)
    noise = NoiseSpec(t2_s=1e-3)
    loose = evolve_chain(spec, noise, n_samples=21, rtol=1e-8, atol=1e-12)
    tight = evolve_chain(spec, noise, n_samples=21, rtol=5e-9, atol=1e-12)
    dev = max(np.abs(a - b).max() for a, b in zip(loose.states, tight.states))
    n = spec.n_sites
    assert dev < 2e-8 * math.sqrt(4 ** n / (n + 1) ** 2)


def test_trajectory_time_axes():
    spec = ChainSpec(m_chain=3)
    traj = evolve_chain(spec, NoiseSpec(t2_s=1e-3), n_samples=11)
    assert np.array_equal(traj.times_s, np.linspace(0.0, default_window_s(spec), 11))
    assert abs(spec.kappa_angular * traj.times_s[-1] - 40.0) < 1e-9


def test_evolve_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evolve(np.eye(2, dtype=complex) / 2, np.zeros((4, 4)),
               NoiseSpec(t2_s=1e-3), t_end=1.0)
    with pytest.raises(ValueError):
        evolve(np.eye(2, dtype=complex) / 2, np.zeros((2, 2)),
               NoiseSpec(t2_s=1e-3), t_end=-1.0)
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(2) / 2, np.zeros((4, 4)), NoiseSpec(t2_s=1e-3))
    for path in (evolve_chain, sector_series):
        with pytest.raises(ValueError):
            path(ChainSpec(m_chain=2), NoiseSpec(t2_s=1e-3), n_samples=1)
