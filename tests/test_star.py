import numpy as np
import pytest

from spinstar.qops import LOWER, RAISE, embed, pauli
from spinstar.star import (
    StarSpec,
    build_star_hamiltonian,
    dicke_state,
    ground_states,
    multiplet_multiplicities,
    star_spectrum_analytic,
    w_state_protocol,
)


def ground_energy(spec):
    """Closed-form star ground energy: -lambda (N+1)/2 for odd N,
    -lambda sqrt(N/2 (N/2 + 1)) for even N."""
    n, lam = spec.n_outer, spec.coupling
    if n % 2 == 1:
        return -lam * (n + 1) / 2
    return -lam * np.sqrt((n / 2) * (n / 2 + 1))


def collective_ops(n):
    """Total-spin operators of n spin-1/2 sites (J_z eigenvalue m on |j,m>)."""
    dim = 2 ** n
    jp = np.zeros((dim, dim), dtype=complex)
    jz = np.zeros((dim, dim), dtype=complex)
    half_z = np.array([[-0.5, 0], [0, 0.5]], dtype=complex)  # +1/2 on |1>
    for site in range(n):
        jp += embed(RAISE, site, n)
        jz += embed(half_z, site, n)
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / (2j)
    return {"jx": jx, "jy": jy, "jz": jz, "j2": jx @ jx + jy @ jy + jz @ jz}


def label_residuals(psi, j, m):
    """||J^2 psi - j(j+1) psi|| and ||J_z psi - m psi||."""
    ops = collective_ops(int(np.log2(len(psi)) + 0.5))
    return (np.linalg.norm(ops["j2"] @ psi - j * (j + 1) * psi),
            np.linalg.norm(ops["jz"] @ psi - m * psi))


def number_operator(n_sites):
    """Total excitation number: the count of sites in |1>."""
    return np.diag([bin(i).count("1") for i in range(2 ** n_sites)]).astype(complex)


def spectrum_values(spec):
    _, _, e, mult = np.array(star_spectrum_analytic(spec)).T
    return np.sort(np.repeat(e, mult.astype(int)))


def test_single_outer_spin_spectrum():
    h = build_star_hamiltonian(StarSpec(1, 1.0))
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w, [-1, 0, 0, 1], atol=1e-12)


def test_three_outer_spins_ground_energy():
    h = build_star_hamiltonian(StarSpec(3, 1.0))
    w = np.linalg.eigvalsh(h)
    assert abs(w[0] + 2.0) < 1e-12
    assert h.shape == (16, 16)


def test_hamiltonian_is_hermitian():
    h = build_star_hamiltonian(StarSpec(4, 2.5))
    assert np.abs(h - h.conj().T).max() < 1e-12


def _xy_products(spec):
    """lambda * sum_i (X_0 X_i + Y_0 Y_i), the x/y form of the star."""
    sites = spec.n_outer + 1
    out = np.zeros((2 ** sites, 2 ** sites), dtype=complex)
    for outer in range(1, sites):
        for kind in ("x", "y"):
            out += embed(pauli(kind), 0, sites) @ embed(pauli(kind), outer, sites)
    return spec.coupling * out


def test_xy_form_is_twice_the_ladder_form():
    # lambda (s0x Jx + s0y Jy) with Pauli s is twice the flip-flop operator
    spec = StarSpec(3, 1.3)
    assert np.allclose(_xy_products(spec), 2 * build_star_hamiltonian(spec))


@pytest.mark.parametrize("form", ["ladder", "xy"])
def test_index_construction_matches_operator_products(form):
    # the flip-flop sum built from embedded single-site ladder operators,
    # or half the x/y product sum
    for n in range(1, 8):
        spec = StarSpec(n, 1.7)
        sites = n + 1
        if form == "xy":
            product = _xy_products(spec) / 2
        else:
            product = np.zeros((2 ** sites, 2 ** sites), dtype=complex)
            for outer in range(1, sites):
                term = embed(RAISE, 0, sites) @ embed(LOWER, outer, sites)
                product += term + term.conj().T
            product *= spec.coupling
        assert np.array_equal(build_star_hamiltonian(spec), product), n


def test_analytic_level_examples():
    levels = star_spectrum_analytic(StarSpec(3, 1.0))
    # the (j=3/2, m=1/2) pair sits at +-2, once each
    pm = sorted((e, mult) for j, m, e, mult in levels if j == 1.5 and m == 0.5)
    assert np.allclose(pm, [(-2.0, 1), (2.0, 1)])
    # every m = -j entry is one zero-energy row holding both zero modes of
    # its sector: j = 3/2 occurs once, j = 1/2 twice
    zeros = {j: (e, mult) for j, m, e, mult in levels if m == -j}
    assert zeros == {1.5: (0.0, 2), 0.5: (0.0, 4)}
    assert sum(mult for *_, mult in levels) == 16


def test_spectrum_matches_diagonalization_n5():
    spec = StarSpec(5, 2.0)
    w = np.linalg.eigvalsh(build_star_hamiltonian(spec))
    assert len(w) == 64
    assert np.abs(np.sort(w) - spectrum_values(spec)).max() < 1e-9


@pytest.mark.parametrize("n", range(1, 8))
def test_spectrum_multiset_equivalence(n):
    spec = StarSpec(n, 1.0)
    w = np.linalg.eigvalsh(build_star_hamiltonian(spec))
    assert np.abs(np.sort(w) - spectrum_values(spec)).max() < 1e-9


def test_spectrum_scaling_covariance():
    base = spectrum_values(StarSpec(4, 1.0))
    scaled = spectrum_values(StarSpec(4, 3.7))
    assert np.abs(scaled - 3.7 * base).max() < 1e-9


def test_excitation_number_is_conserved():
    for n in (2, 3, 4):
        h = build_star_hamiltonian(StarSpec(n, 1.0))
        n_exc = number_operator(n + 1)
        assert np.abs(h @ n_exc - n_exc @ h).max() < 1e-12


def test_zero_coupling_limit():
    with pytest.raises(ValueError):
        StarSpec(2, 0.0)
    # vanishingly small coupling scales the operator to zero
    h = build_star_hamiltonian(StarSpec(2, 1.0))
    assert np.abs(h).max() > 0


def test_multiplet_multiplicities_sum():
    for n in range(1, 8):
        mults = multiplet_multiplicities(n)
        assert sum(d * int(2 * j + 1) for j, d in mults.items()) == 2 ** n


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 1), (4, 2), (5, 1), (6, 2), (7, 1)])
def test_ground_degeneracy_parity(n, expected):
    h = build_star_hamiltonian(StarSpec(n, 1.0))
    w = np.linalg.eigvalsh(h)
    assert sum(w < w[0] + 1e-9) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_ground_states_reach_minimal_energy(n):
    spec = StarSpec(n, 1.0)
    h = build_star_hamiltonian(spec)
    w = np.linalg.eigvalsh(h)
    states = ground_states(spec)
    assert len(states) == (1 if n % 2 else 2)
    for psi in states:
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
        energy = (psi.conj() @ h @ psi).real
        assert abs(energy - w[0]) < 1e-9
        assert abs(energy - ground_energy(spec)) < 1e-9


def test_even_ground_manifold_is_orthonormal():
    a, b = ground_states(StarSpec(2, 1.0))
    assert abs(np.vdot(a, b)) < 1e-12


def test_single_outer_ground_state_is_singlet_like():
    psi = ground_states(StarSpec(1, 1.0))[0]
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1 / np.sqrt(2)   # |01>
    expected[2] = -1 / np.sqrt(2)  # |10>
    assert min(np.abs(psi - expected).max(),
               np.abs(psi + expected).max()) < 1e-12


def test_dicke_state_examples():
    d32 = dicke_state(3, 2)
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1 / np.sqrt(3)   # |011>, |101>, |110>
    assert np.allclose(d32, expected)
    d31 = dicke_state(3, 1)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)   # |001>, |010>, |100>
    assert np.allclose(d31, expected)
    d0 = dicke_state(4, 0)
    assert d0[0] == 1.0 and np.abs(d0[1:]).max() == 0


def test_dicke_state_range_check():
    with pytest.raises(ValueError):
        dicke_state(3, 4)


def test_collective_state_labels():
    # the Dicke state with k excitations is |j = n/2, m = k - n/2>
    assert max(label_residuals(dicke_state(4, 3), 2.0, 1.0)) < 1e-10
    assert label_residuals(dicke_state(4, 3), 2.0, 0.0)[1] > 0.5
    for n in (1, 2, 3, 5):
        for k in range(n + 1):
            assert max(label_residuals(dicke_state(n, k), n / 2, k - n / 2)) < 1e-10


def test_collective_ops_algebra():
    ops = collective_ops(3)
    # [Jx, Jy] = i Jz for the summed spin operators
    commutator = ops["jx"] @ ops["jy"] - ops["jy"] @ ops["jx"]
    assert np.abs(commutator - 1j * ops["jz"]).max() < 1e-12


def test_w_state_protocol_n3():
    spec = StarSpec(3, 1.0)
    p0, outer0 = w_state_protocol(spec, 0)
    assert abs(p0 - 0.5) < 1e-10
    assert abs(np.vdot(dicke_state(3, 2), outer0)) ** 2 > 1 - 1e-10
    p1, outer1 = w_state_protocol(spec, 1)
    assert abs(p1 - 0.5) < 1e-10
    assert abs(np.vdot(dicke_state(3, 1), outer1)) ** 2 > 1 - 1e-10


def test_w_state_protocol_n5():
    p0, outer0 = w_state_protocol(StarSpec(5, 1.0), 0)
    assert abs(p0 - 0.5) < 1e-10
    assert abs(np.vdot(dicke_state(5, 3), outer0)) ** 2 > 1 - 1e-10


def test_w_state_protocol_rejects_even_n():
    with pytest.raises(ValueError, match="degenerate"):
        w_state_protocol(StarSpec(2, 1.0), 0)


def test_w_state_protocol_agrees_with_numeric_projection():
    # project the numerically diagonalized ground state instead of the
    # analytic form and compare the normalized outer components
    spec = StarSpec(5, 1.0)
    h = build_star_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    psi = v[:, 0]
    branches = psi.reshape(2, -1)
    for outcome in (0, 1):
        amp = branches[outcome]
        p = float(np.vdot(amp, amp).real)
        assert abs(p - 0.5) < 1e-9
        _, outer = w_state_protocol(spec, outcome)
        overlap = abs(np.vdot(outer, amp / np.sqrt(p))) ** 2
        assert overlap > 1 - 1e-9
