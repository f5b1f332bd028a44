import numpy as np
import pytest

from spinstar.qops import (
    LOWER,
    RAISE,
    assert_density,
    embed,
    n_qubits,
    partial_trace,
    pauli,
)
from spinstar.star import StarSpec, build_star_hamiltonian, dicke_state, ground_states


def basis_state(bits):
    """Computational basis ket for a bit sequence, site 0 leftmost."""
    ket = np.zeros(2 ** len(bits), dtype=complex)
    ket[int("".join(map(str, bits)), 2)] = 1.0
    return ket


def ket2dm(psi):
    return np.outer(psi, np.conj(psi))


class MeasurementError(ValueError):
    """A projective measurement outcome has zero probability."""


def projector(outcome, site, n_sites):
    """Projector onto |outcome> of `site` within an `n_sites` register."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    p = np.zeros((2, 2), dtype=complex)
    p[outcome, outcome] = 1.0
    return embed(p, site, n_sites)


def project_measure(rho, site, outcome, eps=1e-12):
    """Projective measurement of one site: (probability, renormalized post
    state).  The oracle of the central-spin measurement that
    star.w_state_protocol reads in closed form."""
    rho = np.asarray(rho, dtype=complex)
    proj = projector(outcome, site, n_qubits(rho.shape[0]))
    prob = float(np.trace(proj @ rho).real)
    if prob < eps:
        raise MeasurementError(f"outcome {outcome} on site {site} is impossible (p={prob:.3e})")
    return prob, proj @ rho @ proj / prob


def number_operator(n_sites):
    """Total excitation number, summed from embedded site occupations."""
    excited = np.array([[0, 0], [0, 1]], dtype=complex)
    return sum(embed(excited, site, n_sites) for site in range(n_sites))


def test_pauli_matrices():
    assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])
    assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli("identity"), np.eye(2))


def test_ladder_identities():
    assert np.array_equal(RAISE + LOWER, pauli("x"))
    assert np.array_equal(LOWER - RAISE, 1j * pauli("y"))
    # excitation ladder: RAISE adds an excitation in this basis
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    assert np.allclose(RAISE @ ket0, ket1)
    assert np.allclose(LOWER @ ket1, ket0)


def test_pauli_unknown_kind():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_single_site():
    assert np.array_equal(embed(pauli("z"), 0, 1), pauli("z"))


def test_embed_tensor_structure():
    assert np.array_equal(embed(pauli("z"), 0, 2), np.kron(pauli("z"), np.eye(2)))
    assert np.array_equal(embed(pauli("z"), 1, 2), np.kron(np.eye(2), pauli("z")))


def test_embed_product_matches_dense_kron():
    # dense 4x4 multiplication oracle
    left = embed(pauli("x"), 0, 2) @ embed(pauli("x"), 1, 2)
    assert np.allclose(left, np.kron(pauli("x"), pauli("x")))


def test_embed_out_of_range():
    with pytest.raises(IndexError):
        embed(pauli("x"), 2, 2)


def test_embedded_operators_on_distinct_sites_commute():
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        i, j = rng.choice(n, size=2, replace=False)
        ai, bj = embed(a, i, n), embed(b, j, n)
        assert np.abs(ai @ bj - bj @ ai).max() < 1e-12


def test_partial_trace_product_state():
    rho = ket2dm(basis_state([0, 0]))
    assert np.allclose(partial_trace(rho, {0}), ket2dm(basis_state([0])))


def test_partial_trace_bell_marginal():
    phi = (basis_state([0, 0]) + basis_state([1, 1])) / np.sqrt(2)
    assert np.allclose(partial_trace(ket2dm(phi), {0}), np.eye(2) / 2)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert np.allclose(partial_trace(rho, {0, 1, 2}), rho)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    red = partial_trace(rho, {1, 3})
    assert abs(np.trace(red) - np.trace(rho)) < 1e-10
    assert np.abs(red - red.conj().T).max() < 1e-12
    assert_density(red)


def test_partial_trace_transfer_state_before_evolution():
    # |+>|000>|0> reduced to the two end sites is |+><+| x |0><0|
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = plus
    for _ in range(4):
        psi = np.kron(psi, np.array([1, 0], dtype=complex))
    pair = partial_trace(ket2dm(psi), {0, 4})
    expected = np.kron(ket2dm(plus), ket2dm(np.array([1, 0], dtype=complex)))
    assert np.abs(pair - expected).max() < 1e-12


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {5})


def test_eig_hermitian_star_levels():
    h = build_star_hamiltonian(StarSpec(3, 1.0))
    w = np.linalg.eigvalsh(h)
    allowed = {0.0, 1.0, np.sqrt(3), 2.0}
    for val in w:
        assert min(abs(abs(val) - a) for a in allowed) < 1e-9


def test_project_measure_trivial():
    rho = ket2dm(basis_state([0]))
    p, post = project_measure(rho, 0, 0)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(post, rho)


def test_project_measure_central_spin_of_odd_ground_state():
    # measuring the central spin of the N=3 ground state leaves the outer
    # spins in one of the two three-spin Dicke states, each at p = 1/2
    psi = ground_states(StarSpec(3, 1.0))[0]
    p0, post0 = project_measure(ket2dm(psi), 0, 0)
    assert abs(p0 - 0.5) < 1e-10
    outer = partial_trace(post0, {1, 2, 3})
    target = dicke_state(3, 2)
    assert abs(target.conj() @ outer @ target) > 1 - 1e-10


def test_project_measure_bell():
    phi = (basis_state([0, 0]) + basis_state([1, 1])) / np.sqrt(2)
    p, post = project_measure(ket2dm(phi), 0, 1)
    assert abs(p - 0.5) < 1e-12
    assert np.allclose(post, ket2dm(basis_state([1, 1])))


def test_project_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    for site in range(3):
        total = sum(project_measure(rho, site, outcome)[0] for outcome in (0, 1))
        assert abs(total - 1.0) < 1e-10


def test_project_measure_impossible_outcome():
    with pytest.raises(MeasurementError):
        project_measure(ket2dm(basis_state([0])), 0, 1)


def test_projector_completeness():
    assert np.allclose(projector(0, 1, 3) + projector(1, 1, 3), np.eye(8))


def test_number_operator_counts_excitations():
    n_op = number_operator(3)
    state = basis_state([1, 0, 1])
    assert abs(state.conj() @ n_op @ state - 2.0) < 1e-12


def test_n_qubits_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        n_qubits(6)


def test_assert_density_checks_every_matrix_of_a_stack():
    good = np.eye(4, dtype=complex) / 4
    assert_density(np.stack([good, good]))
    bad_trace = np.stack([good, 2 * good])
    with pytest.raises(ValueError, match="trace"):
        assert_density(bad_trace)
    negative = good.copy()
    negative[0, 0], negative[1, 1] = -0.1, 0.6
    with pytest.raises(ValueError, match="negative eigenvalue"):
        assert_density(np.stack([good, negative]))
    with pytest.raises(ValueError):
        assert_density(np.zeros((2, 4, 2)))
