"""Spin-star model: one central spin exchange-coupled to N outer spins.

The Hamiltonian is the resonant flip-flop form

    H = lambda * (s0+ J- + s0- J+),      J+- = sum_i s_i+-

whose eigenstates pair ``|0>|j,m>`` with ``|1>|j,m-1>`` at energies
``+-lambda*sqrt((j+m)(j-m+1))``.  The equivalent x/y form
``lambda*(s0x Jx + s0y Jy)`` is twice this operator and is exposed through
the `form` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .qops import RAISE, embed


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


@dataclass(frozen=True)
class CollectiveState:
    """Symmetric-sector state |j, m> of n spins with total-spin labels."""

    j: float
    m: float
    amplitudes: np.ndarray

    def check(self, tol: float = 1e-10) -> None:
        """Verify the J^2 and J_z eigenvalue relations on the amplitudes."""
        n = int(np.log2(len(self.amplitudes)) + 0.5)
        ops = collective_ops(n)
        psi = self.amplitudes
        if np.linalg.norm(ops["j2"] @ psi - self.j * (self.j + 1) * psi) > tol:
            raise ValueError("state is not a J^2 eigenstate with label j")
        if np.linalg.norm(ops["jz"] @ psi - self.m * psi) > tol:
            raise ValueError("state is not a J_z eigenstate with label m")


def collective_ops(n: int) -> dict[str, np.ndarray]:
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
    j2 = jx @ jx + jy @ jy + jz @ jz
    return {"jx": jx, "jy": jy, "jz": jz, "jplus": jp, "jminus": jm, "j2": j2}


def dicke_state(n: int, k: int) -> np.ndarray:
    """Equal superposition of all n-bit basis states with k excitations."""
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} out of range 0..{n}")
    amp = 1.0 / sqrt(comb(n, k))
    psi = np.zeros(2 ** n, dtype=complex)
    for ones in combinations(range(n), k):
        index = sum(1 << (n - 1 - site) for site in ones)
        psi[index] = amp
    return psi


def collective_state(n: int, m: float) -> CollectiveState:
    """The maximal-multiplet state |j=n/2, m> (a Dicke state)."""
    j = n / 2
    k = round(m + j)
    if abs(m + j - k) > 1e-12 or not 0 <= k <= n:
        raise ValueError(f"m={m} invalid for j={j}")
    return CollectiveState(j=j, m=m, amplitudes=dicke_state(n, k))


def build_star_hamiltonian(spec: StarSpec, form: str = "ladder") -> np.ndarray:
    """Dense star Hamiltonian on N+1 qubits, central spin at site 0.

    `form` selects the normalization convention: ``"ladder"`` is the
    flip-flop operator above, ``"xy"`` is its doubled x/y-product form.
    """
    n = spec.n_outer
    n_sites = n + 1
    if n_sites > 14:
        raise ValueError("dense star limited to 14 sites total")
    if form not in ("ladder", "xy"):
        raise ValueError("form must be 'ladder' or 'xy'")
    dim = 2 ** n_sites
    h = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    central = 1 << (n_sites - 1)   # site 0 is the leftmost bit
    strength = spec.coupling * (2.0 if form == "xy" else 1.0)
    for outer in range(1, n_sites):
        bit = 1 << (n_sites - 1 - outer)
        # s0+ s_i- flips |0 at site 0, 1 at site i> to |1, 0>
        src = index[((index & central) == 0) & ((index & bit) != 0)]
        dst = src ^ (central | bit)
        h[dst, src] = h[src, dst] = strength
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


def star_spectrum_analytic(spec: StarSpec) -> list[tuple[float, float, float]]:
    """All (j, m, E) eigenvalue labels of the star, multiplicities expanded.

    For each total-spin sector j of the outer spins and each m from -j to
    j the pair of levels ``+-lambda*sqrt((j+m)(j-m+1))`` appears with the
    sector degeneracy; at m = -j both signs give the two unpaired zero
    modes of that sector.  The resulting multiset has size 2^(N+1).
    """
    lam = spec.coupling
    levels: list[tuple[float, float, float]] = []
    for j, mult in multiplet_multiplicities(spec.n_outer).items():
        m = -j
        while m <= j + 1e-9:
            e = lam * sqrt(max(0.0, (j + m) * (j - m + 1)))
            for _ in range(mult):
                levels.append((j, m, +e))
                levels.append((j, m, -e))
            m += 1
    return levels


def ground_energy(spec: StarSpec) -> float:
    n, lam = spec.n_outer, spec.coupling
    if n % 2 == 1:
        return -lam * (n + 1) / 2
    return -lam * sqrt((n / 2) * (n / 2 + 1))


def ground_states(spec: StarSpec) -> list[np.ndarray]:
    """Ground manifold of the star, central spin as the leftmost factor.

    Odd N gives the unique state
    ``(|0>|N/2,1/2> - |1>|N/2,-1/2>)/sqrt(2)``; even N gives the two
    degenerate states built on (m=0, m=-1) and (m=1, m=0).
    """
    n = spec.n_outer
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)

    def paired(m: float) -> np.ndarray:
        upper = collective_state(n, m).amplitudes
        lower = collective_state(n, m - 1).amplitudes
        return (np.kron(ket0, upper) - np.kron(ket1, lower)) / sqrt(2)

    if n % 2 == 1:
        return [paired(0.5)]
    return [paired(0.0), paired(1.0)]


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
