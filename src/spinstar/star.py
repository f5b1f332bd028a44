"""Spin-star model: one central spin exchange-coupled to N outer spins.

The Hamiltonian is the resonant flip-flop form

    H = lambda * (s0+ J- + s0- J+),      J+- = sum_i s_i+-

whose eigenstates pair ``|0>|j,m>`` with ``|1>|j,m-1>`` at energies
``+-lambda*sqrt((j+m)(j-m+1))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

DICKE_MAX_SPINS = 23   # wstate at N = 23 takes 1.3 GB and 13 s; each 2 spins more, 4x


@dataclass(frozen=True)
class StarSpec:
    """Star geometry: `n_outer` outer spins, exchange coupling rad/s."""

    n_outer: int
    coupling: float = 1.0

    def __post_init__(self):
        if self.n_outer < 1:
            raise ValueError("n_outer must be >= 1")
        if not self.coupling > 0:
            raise ValueError("coupling must be positive")


def dicke_state(n: int, k: int) -> np.ndarray:
    """Equal superposition of all n-bit basis states with k excitations."""
    if n > DICKE_MAX_SPINS:
        raise ValueError(f"Dicke state on {n} spins: at most {DICKE_MAX_SPINS} are allowed")
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} out of range 0..{n}")
    amp = 1.0 / sqrt(comb(n, k))
    psi = np.zeros(2 ** n, dtype=complex)
    for ones in combinations(range(n), k):
        index = sum(1 << (n - 1 - site) for site in ones)
        psi[index] = amp
    return psi


def build_star_hamiltonian(spec: StarSpec) -> np.ndarray:
    """Dense star Hamiltonian on N+1 qubits, central spin at site 0: the
    flip-flop operator above, built by index."""
    n = spec.n_outer
    n_sites = n + 1
    if n_sites > 14:
        raise ValueError("dense star limited to 14 sites total")
    dim = 2 ** n_sites
    h = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    central = 1 << (n_sites - 1)   # site 0 is the leftmost bit
    for outer in range(1, n_sites):
        bit = 1 << (n_sites - 1 - outer)
        # s0+ s_i- flips |0 at site 0, 1 at site i> to |1, 0>
        src = index[((index & central) == 0) & ((index & bit) != 0)]
        dst = src ^ (central | bit)
        h[dst, src] = h[src, dst] = spec.coupling
    return h


def multiplet_multiplicities(n: int) -> dict[float, int]:
    """Degeneracy of each total-spin sector j for n spin-1/2 particles."""
    out: dict[float, int] = {}
    j = n / 2
    while j >= 0:
        k = round(n / 2 - j)
        d = comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)
        if d > 0:
            out[j] = d
        if j < 0.5:
            break
        j -= 1
    return out


def star_spectrum_analytic(spec: StarSpec) -> list[tuple[float, float, float, int]]:
    """All (j, m, E, multiplicity) eigenvalue rows of the star.

    For each total-spin sector j of the outer spins and each m from -j to
    j the pair of levels ``+-lambda*sqrt((j+m)(j-m+1))`` appears with the
    sector degeneracy; at m = -j both signs give the two unpaired zero
    modes of that sector, one row of twice the degeneracy.  The
    multiplicities sum to 2^(N+1); the rows number O(N^2).
    """
    lam = spec.coupling
    rows: list[tuple[float, float, float, int]] = []
    for j, mult in multiplet_multiplicities(spec.n_outer).items():
        m = -j
        while m <= j + 1e-9:
            e = lam * sqrt(max(0.0, (j + m) * (j - m + 1)))
            if e == 0:
                rows.append((j, m, e, 2 * mult))
            else:
                rows += [(j, m, e, mult), (j, m, -e, mult)]
            m += 1
    return rows


def ground_states(spec: StarSpec) -> list[np.ndarray]:
    """Ground manifold of the star, central spin as the leftmost factor.

    Odd N gives the unique state
    ``(|0>|N/2,1/2> - |1>|N/2,-1/2>)/sqrt(2)``; even N gives the two
    degenerate states built on (m=0, m=-1) and (m=1, m=0).
    """
    n = spec.n_outer
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)

    def paired(k: int) -> np.ndarray:
        # |N/2, m> is the Dicke state with k = m + N/2 excitations
        upper, lower = dicke_state(n, k), dicke_state(n, k - 1)
        return (np.kron(ket0, upper) - np.kron(ket1, lower)) / sqrt(2)

    if n % 2 == 1:
        return [paired((n + 1) // 2)]
    return [paired(n // 2), paired(n // 2 + 1)]


def w_state_protocol(spec: StarSpec, central_outcome: int) -> tuple[float, np.ndarray]:
    """Measure the central spin of the odd-N ground state.

    Outcome 0 leaves the outer spins in the Dicke state with (N+1)/2
    excitations, outcome 1 in the one with (N-1)/2; each occurs with
    probability 1/2.  Even N is rejected: the ground manifold is
    degenerate and no single state is preferred.
    """
    if spec.n_outer % 2 == 0:
        raise ValueError("degenerate ground state - specify manifold vector")
    if central_outcome not in (0, 1):
        raise ValueError("central_outcome must be 0 or 1")
    psi = ground_states(spec)[0]
    branches = psi.reshape(2, -1)
    amp = branches[central_outcome]
    prob = float(np.vdot(amp, amp).real)
    return prob, amp / sqrt(prob)
