import itertools
import math

import numpy as np
import pytest

from spinstar.chain import (
    ChainSpec,
    DisorderSpec,
    GeometryError,
    build_chain_hamiltonian,
    build_coupling_graph,
    build_geometry,
    coupling_from_distance,
    effective_delta_ratio,
    loss_configurations,
    single_excitation_matrix,
    validate_star_geometry,
)
from spinstar.qops import commutator, number_operator


def test_geometry_default_positions():
    # register gap follows from inverting the cubic coupling law
    spec = ChainSpec(m_chain=3)
    gap = 10.0 * (1 / 0.9) ** (1 / 3)
    expected = [0.0, gap, gap + 10, gap + 20, 2 * gap + 20]
    got = build_geometry(spec).positions_nm
    assert np.abs(np.array(got) - expected).max() < 1e-12
    assert np.allclose(np.round(got, 3), [0.0, 10.357, 20.357, 30.357, 40.715])


def test_zero_variance_equals_no_disorder():
    clean = build_geometry(ChainSpec(m_chain=4))
    nulled = build_geometry(ChainSpec(
        m_chain=4, disorder=DisorderSpec(variance_nm2=0.0, seed=9)))
    assert clean.positions_nm == nulled.positions_nm


def test_disorder_is_deterministic_in_the_seed():
    spec = ChainSpec(m_chain=5, disorder=DisorderSpec(seed=42))
    assert build_geometry(spec).positions_nm == build_geometry(spec).positions_nm
    other = ChainSpec(m_chain=5, disorder=DisorderSpec(seed=43))
    assert build_geometry(spec).positions_nm != build_geometry(other).positions_nm


def test_disorder_statistics():
    # 1e4 sampled geometries: chain spacings are Normal(r, sigma^2)
    samples = []
    for k in range(10_000):
        spec = ChainSpec(m_chain=3, disorder=DisorderSpec(seed=k))
        pos = np.array(build_geometry(spec).positions_nm)
        samples.extend(np.diff(pos)[1:-1])
    samples = np.array(samples)
    sigma = math.sqrt(0.25)
    assert abs(samples.mean() - 10.0) < 3 * sigma / math.sqrt(10_000)
    assert abs(samples.var() - 0.25) < 0.1 * 0.25


def test_register_gaps_unaffected_by_disorder():
    spec = ChainSpec(m_chain=4, disorder=DisorderSpec(seed=1))
    pos = build_geometry(spec).positions_nm
    gap = spec.register_gap_nm
    assert abs((pos[1] - pos[0]) - gap) < 1e-12
    assert abs((pos[-1] - pos[-2]) - gap) < 1e-12


def test_register_gap_disorder_flag():
    spec = ChainSpec(m_chain=4, disorder=DisorderSpec(seed=1, include_register_gaps=True))
    pos = build_geometry(spec).positions_nm
    assert abs((pos[1] - pos[0]) - spec.register_gap_nm) > 1e-6


def test_coupling_from_distance():
    spec = ChainSpec(m_chain=3)
    kappa = spec.kappa_angular
    assert abs(kappa - 2 * math.pi * 26e3) < 1e-9
    assert abs(coupling_from_distance(10.0, spec) - kappa) < 1e-12 * kappa
    assert abs(coupling_from_distance(20.0, spec) - kappa / 8) < 1e-12 * kappa
    assert abs(coupling_from_distance(spec.register_gap_nm, spec) - 0.9 * kappa) < 1e-9 * kappa
    with pytest.raises(ValueError):
        coupling_from_distance(0.0, spec)


def test_edge_strengths_reproduce_cubic_law():
    spec = ChainSpec(m_chain=5, lost_sites={2})
    geom = build_geometry(spec)
    graph = build_coupling_graph(spec, geom)
    for a, b, s in graph.edges:
        d = geom.positions_nm[graph.site_ids[b]] - geom.positions_nm[graph.site_ids[a]]
        assert abs(s - coupling_from_distance(d, spec)) < 1e-12 * s


def test_minimal_chain_without_nnn():
    spec = ChainSpec(m_chain=1, include_nnn=False)
    h, ids = build_chain_hamiltonian(spec)
    assert h.shape == (8, 8)
    assert ids == (0, 1, 2)
    graph = build_coupling_graph(spec)
    delta = 0.9 * spec.kappa_angular
    assert len(graph.edges) == 2
    for _, _, s in graph.edges:
        assert abs(s - delta) < 1e-9 * delta


def test_nnn_strength_between_chain_sites():
    graph = build_coupling_graph(ChainSpec(m_chain=3))
    kappa = ChainSpec(m_chain=3).kappa_angular
    strengths = {(a, b): s for a, b, s in graph.edges}
    assert abs(strengths[(1, 3)] - kappa / 8) < 1e-12 * kappa


def test_chain_hamiltonian_is_hermitian_and_conserving():
    spec = ChainSpec(m_chain=3)
    h, _ = build_chain_hamiltonian(spec)
    assert np.abs(h - h.conj().T).max() < 1e-12
    assert np.abs(commutator(h, number_operator(5))).max() < 1e-10


def test_site_reversal_symmetry():
    # clean chains are invariant under reversing the site order
    # (tolerance relative to the coupling scale, entries are ~1e5 rad/s)
    spec = ChainSpec(m_chain=4)
    h1 = single_excitation_matrix(build_coupling_graph(spec))
    scale = np.abs(h1).max()
    assert np.abs(h1 - h1[::-1, ::-1]).max() < 1e-12 * scale
    h, _ = build_chain_hamiltonian(spec)
    n = 6
    perm = np.zeros((2 ** n, 2 ** n))
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        ridx = sum(bits[i] << i for i in range(n))  # site i -> site n-1-i
        perm[ridx, idx] = 1.0
    assert np.abs(perm @ h @ perm.T - h).max() < 1e-12 * scale


def test_two_end_losses_match_shorter_chain():
    spec5 = ChainSpec(m_chain=5, lost_sites={1, 5})
    ratio = effective_delta_ratio(spec5)
    assert round(ratio, 4) == 0.1185 or round(ratio, 4) == 0.1186
    assert round(ratio, 2) == 0.12
    h5, ids5 = build_chain_hamiltonian(spec5)
    assert ids5 == (0, 2, 3, 4, 6)
    h3, _ = build_chain_hamiltonian(ChainSpec(m_chain=3, delta_ratio=ratio))
    assert np.abs(h5 - h3).max() < 1e-9 * np.abs(h3).max()


def test_single_loss_reconnects_at_doubled_distance():
    spec = ChainSpec(m_chain=3, lost_sites={2})
    graph = build_coupling_graph(spec)
    kappa = spec.kappa_angular
    # survivors 0,1,3,4: the bridged link spans 2r
    strengths = {(a, b): s for a, b, s in graph.edges}
    assert abs(strengths[(1, 2)] - kappa / 8) < 1e-12 * kappa


def test_lost_site_validation():
    with pytest.raises(GeometryError):
        ChainSpec(m_chain=5, lost_sites={2, 3})
    with pytest.raises(GeometryError):
        ChainSpec(m_chain=7, lost_sites={1, 3, 5})
    with pytest.raises(ValueError):
        ChainSpec(m_chain=3, lost_sites={4})
    with pytest.raises(ValueError):
        ChainSpec(m_chain=3, delta_ratio=1.2)


def test_validate_star_geometry():
    assert validate_star_geometry(3, 3) is True
    assert validate_star_geometry(38, 3) is False
    assert validate_star_geometry(1, 1) is True
    # threshold arithmetic: sin(pi/76) just misses 1/(3 + 20*sqrt(10)/3)
    assert math.sin(math.pi / 76) < 1 / (3 + 20 * math.sqrt(10) / 3)


def test_loss_configurations_single():
    configs = loss_configurations(5, 1)
    assert configs == [frozenset({s}) for s in (1, 2, 3, 4, 5)]


def test_loss_configurations_pairs_against_brute_force():
    for m in range(2, 9):
        got = loss_configurations(m, 2)
        brute = [frozenset(c) for c in itertools.combinations(range(1, m + 1), 2)
                 if abs(c[0] - c[1]) > 1]
        assert got == brute


def test_loss_configurations_empty():
    assert loss_configurations(2, 2) == []


def test_resampling_never_triggers_at_realistic_disorder():
    # 5% disorder at r = 10 nm keeps every draw positive
    for k in range(200):
        spec = ChainSpec(m_chain=6, disorder=DisorderSpec(seed=k))
        pos = np.array(build_geometry(spec).positions_nm)
        assert (np.diff(pos) > 0).all()
