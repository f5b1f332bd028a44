"""Chain geometry and Hamiltonian: registers joined by a dipolar-coupled chain.

A transfer arm consists of two register spins (sites 0 and M+1) joined by
M chain spins on a line.  Couplings follow the dipolar law
``kappa * (r / d)**3`` on the geometric distance d.  The register-chain
gap is placed so that the register coupling equals ``delta_ratio * kappa``,
i.e. at ``r * (kappa/delta)**(1/3)``.

Lost chain sites are removed from the Hilbert space; the surviving sites,
ordered along the line, are connected by nearest and second-nearest
neighbor edges with strengths from their actual distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qops import LOWER, RAISE, embed


class GeometryError(ValueError):
    """A chain specification is physically inadmissible."""


@dataclass(frozen=True)
class DisorderSpec:
    """Normal spacing disorder: chain spacings ~ N(r, variance_nm2), with r
    the arm's `spacing_nm`.

    Register gaps stay fixed: registers are implanted independently of
    the chain.
    """

    variance_nm2: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.variance_nm2 < 0:
            raise ValueError("variance_nm2 must be nonnegative")


@dataclass(frozen=True)
class ChainSpec:
    """Transfer-arm specification.

    Parameters
    ----------
    m_chain : int
        Number of chain spins between the two registers.
    spacing_nm : float
        Mean chain lattice spacing r.
    delta_ratio : float
        Register coupling as a fraction of the chain coupling, in (0, 1].
    kappa_hz : float
        Chain coupling at distance r, as an ordinary frequency; converted
        to the angular frequency ``2*pi*kappa_hz`` internally.
    lost_sites : frozenset of int
        Missing chain sites (indices 1..M).  At most two, never adjacent:
        with couplings truncated beyond second neighbors, two adjacent
        losses leave only a residual long-distance link.
    disorder : DisorderSpec or None
    """

    m_chain: int
    spacing_nm: float = 10.0
    delta_ratio: float = 0.9
    kappa_hz: float = 26e3
    lost_sites: frozenset = field(default_factory=frozenset)
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        if self.m_chain < 1:
            raise ValueError("m_chain must be >= 1")
        if not self.spacing_nm > 0:
            raise ValueError("spacing_nm must be positive")
        if not 0 < self.delta_ratio <= 1:
            raise ValueError("delta_ratio must lie in (0, 1]")
        if not self.kappa_hz > 0:
            raise ValueError("kappa_hz must be positive")
        lost = frozenset(int(s) for s in self.lost_sites)
        object.__setattr__(self, "lost_sites", lost)
        if any(s < 1 or s > self.m_chain for s in lost):
            raise ValueError(f"lost sites {sorted(lost)} outside chain 1..{self.m_chain}")
        if len(lost) > 2:
            raise GeometryError("at most two lost sites are supported")
        if any(abs(a - b) == 1 for a in lost for b in lost):
            raise GeometryError("adjacent lost sites disconnect the arm")

    @property
    def kappa_angular(self) -> float:
        """Chain coupling as an angular frequency, rad/s."""
        return 2 * math.pi * self.kappa_hz

    @property
    def register_gap_nm(self) -> float:
        """Register-chain distance realizing the delta_ratio coupling."""
        return self.spacing_nm * (1.0 / self.delta_ratio) ** (1.0 / 3.0)

    @property
    def surviving_sites(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.m_chain + 2) if s not in self.lost_sites)

    @property
    def n_sites(self) -> int:
        return self.m_chain + 2 - len(self.lost_sites)


@dataclass(frozen=True)
class Geometry:
    """Collinear positions (nm) of all M+2 lattice sites, lost ones included."""

    positions_nm: tuple

    def __post_init__(self):
        pos = tuple(float(p) for p in self.positions_nm)
        object.__setattr__(self, "positions_nm", pos)
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise GeometryError("positions must increase strictly")


@dataclass(frozen=True)
class CouplingGraph:
    """Coupling edges between surviving sites, relabeled 0..n-1.

    `site_ids` maps the new index to the original lattice index; edges are
    ``(i, j, strength_rad_per_s)`` with i < j in new indices.
    """

    n_sites: int
    site_ids: tuple
    edges: tuple


_MAX_RESAMPLES = 100


def build_geometry(spec: ChainSpec) -> Geometry:
    """Site positions for a spec, sampling spacing disorder when configured.

    Sampled spacings must be positive; a nonpositive draw is resampled up
    to a bounded number of times (a many-sigma event at realistic
    disorder, but the behavior is pinned down).
    """
    m, r, gap = spec.m_chain, spec.spacing_nm, spec.register_gap_nm
    dis = spec.disorder
    if dis is None or dis.variance_nm2 == 0.0:
        spacings = [r] * (m - 1)
    else:
        rng = np.random.default_rng(dis.seed)
        sigma = math.sqrt(dis.variance_nm2)

        def draw() -> float:
            for _ in range(_MAX_RESAMPLES):
                x = float(rng.normal(r, sigma))
                if x > 0:
                    return x
            raise GeometryError("could not sample a positive spacing")

        spacings = [draw() for _ in range(m - 1)]
    pos = [0.0, gap]
    for s in spacings:
        pos.append(pos[-1] + s)
    pos.append(pos[-1] + gap)
    return Geometry(positions_nm=tuple(pos))


def coupling_from_distance(d_nm: float, spec: ChainSpec) -> float:
    """Dipolar coupling strength (rad/s) at distance `d_nm`."""
    if not d_nm > 0:
        raise ValueError("distance must be positive")
    return spec.kappa_angular * (spec.spacing_nm / d_nm) ** 3


def build_coupling_graph(spec: ChainSpec) -> CouplingGraph:
    """Nearest and second-nearest edges among surviving sites.

    Neighbor rank is taken along the line of surviving sites, so a single
    loss reconnects its neighbors at the doubled distance.  Strengths
    follow the cubic law on the geometry of :func:`build_geometry`.
    """
    pos = build_geometry(spec).positions_nm
    alive = spec.surviving_sites
    n = len(alive)
    edges = []
    for a in range(n - 1):
        for b in (a + 1, a + 2):
            if b >= n:
                continue
            d = pos[alive[b]] - pos[alive[a]]
            edges.append((a, b, coupling_from_distance(d, spec)))
    return CouplingGraph(n_sites=n, site_ids=alive, edges=tuple(edges))


def single_excitation_matrix(graph: CouplingGraph) -> np.ndarray:
    """Hopping matrix of the one-excitation sector (n x n, real symmetric)."""
    h = np.zeros((graph.n_sites, graph.n_sites))
    for a, b, s in graph.edges:
        h[a, b] = h[b, a] = s
    return h


def build_chain_hamiltonian(spec: ChainSpec) -> tuple[np.ndarray, tuple]:
    """Dense flip-flop Hamiltonian over surviving sites.

    Returns the operator on ``n_sites`` qubits together with the map from
    new site index to original lattice index.
    """
    graph = build_coupling_graph(spec)
    n = graph.n_sites
    # 4^n complex entries per state: 8 sites take 2 GB per default trajectory
    if n > 7:
        raise ValueError("dense chain limited to 7 sites; use the sector path")
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for a, b, s in graph.edges:
        hop = embed(RAISE, a, n) @ embed(LOWER, b, n)
        h += s * (hop + hop.conj().T)
    return h, graph.site_ids


def validate_star_geometry(n_outer: int, m_chain: int) -> bool:
    """Whether N arms of M chain spins fit around one center.

    With second-neighbor couplings retained, adjacent outer spins must
    stay farther apart than twice the lattice spacing, which bounds the
    arm count by ``sin(pi/(2N)) > 1/(M + 20*sqrt(10)/3)``.
    """
    if n_outer < 1 or m_chain < 1:
        raise ValueError("n_outer and m_chain must be >= 1")
    return math.sin(math.pi / (2 * n_outer)) > 1.0 / (m_chain + 20 * math.sqrt(10) / 3)


def loss_configurations(m_chain: int, n_lost: int) -> list[frozenset]:
    """All admissible lost-site sets of the given size, lexicographic.

    Only non-adjacent subsets of 1..M qualify; the list may be empty.
    """
    if n_lost not in (1, 2):
        raise ValueError("n_lost must be 1 or 2")
    out = []
    if n_lost == 1:
        return [frozenset({s}) for s in range(1, m_chain + 1)]
    for a in range(1, m_chain + 1):
        for b in range(a + 2, m_chain + 1):
            out.append(frozenset({a, b}))
    return out
