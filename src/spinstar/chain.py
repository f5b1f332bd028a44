"""Chain geometry and Hamiltonian: registers joined by a dipolar-coupled chain.

A transfer arm consists of two register spins (sites 0 and M+1) joined by
M chain spins on a line.  Couplings follow the dipolar law
``kappa * (r / d)**3`` on the geometric distance d.  The register-chain
gap is placed so that the register coupling equals ``delta_ratio * kappa``,
i.e. at ``r * (kappa/delta)**(1/3)``.

Lost chain sites are removed from the Hilbert space; the surviving sites,
ordered along the line, are connected by nearest and (optionally)
second-nearest neighbor edges with strengths from their actual distances.
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
    """Normal spacing disorder: chain spacings ~ N(mean_nm, variance_nm2).

    Register gaps stay fixed unless `include_register_gaps` is set;
    registers are implanted independently of the chain.
    """

    mean_nm: float = 10.0
    variance_nm2: float = 0.25
    seed: int = 0
    include_register_gaps: bool = False

    def __post_init__(self):
        if not self.mean_nm > 0:
            raise ValueError("mean_nm must be positive")
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
    include_nnn : bool
        Include second-nearest-neighbor edges.
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
    include_nnn: bool = True
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
        gaps = (gap, gap)
    else:
        rng = np.random.default_rng(dis.seed)
        sigma = math.sqrt(dis.variance_nm2)

        def draw(mean: float) -> float:
            for _ in range(_MAX_RESAMPLES):
                x = float(rng.normal(mean, sigma))
                if x > 0:
                    return x
            raise GeometryError("could not sample a positive spacing")

        spacings = [draw(dis.mean_nm) for _ in range(m - 1)]
        if dis.include_register_gaps:
            gaps = (draw(gap), draw(gap))
        else:
            gaps = (gap, gap)
    pos = [0.0, gaps[0]]
    for s in spacings:
        pos.append(pos[-1] + s)
    pos.append(pos[-1] + gaps[1])
    return Geometry(positions_nm=tuple(pos))


def coupling_from_distance(d_nm: float, spec: ChainSpec) -> float:
    """Dipolar coupling strength (rad/s) at distance `d_nm`."""
    if not d_nm > 0:
        raise ValueError("distance must be positive")
    return spec.kappa_angular * (spec.spacing_nm / d_nm) ** 3


def build_coupling_graph(spec: ChainSpec, geometry: Geometry | None = None) -> CouplingGraph:
    """Nearest and second-nearest edges among surviving sites.

    Neighbor rank is taken along the line of surviving sites, so a single
    loss reconnects its neighbors at the doubled distance.  Strengths
    always follow the cubic law on the stored geometry.
    """
    geom = build_geometry(spec) if geometry is None else geometry
    if len(geom.positions_nm) != spec.m_chain + 2:
        raise GeometryError("geometry does not match the chain's site count")
    alive = spec.surviving_sites
    n = len(alive)
    edges = []
    for a in range(n - 1):
        reach = (a + 1, a + 2) if spec.include_nnn else (a + 1,)
        for b in reach:
            if b >= n:
                continue
            d = geom.positions_nm[alive[b]] - geom.positions_nm[alive[a]]
            edges.append((a, b, coupling_from_distance(d, spec)))
    graph = CouplingGraph(n_sites=n, site_ids=alive, edges=tuple(edges))
    _assert_connected(graph)
    return graph


def _assert_connected(graph: CouplingGraph) -> None:
    seen = {0}
    frontier = [0]
    adj: dict[int, list[int]] = {i: [] for i in range(graph.n_sites)}
    for a, b, _ in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != graph.n_sites:
        raise GeometryError("coupling graph is disconnected")


def single_excitation_matrix(graph: CouplingGraph) -> np.ndarray:
    """Hopping matrix of the one-excitation sector (n x n, real symmetric)."""
    h = np.zeros((graph.n_sites, graph.n_sites))
    for a, b, s in graph.edges:
        h[a, b] = h[b, a] = s
    return h


def build_chain_hamiltonian(
    spec: ChainSpec, geometry: Geometry | None = None
) -> tuple[np.ndarray, tuple]:
    """Dense flip-flop Hamiltonian over surviving sites.

    Returns the operator on ``n_sites`` qubits together with the map from
    new site index to original lattice index.
    """
    graph = build_coupling_graph(spec, geometry)
    n = graph.n_sites
    if n > 14:
        raise ValueError("dense chain limited to 14 sites; use the sector path")
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for a, b, s in graph.edges:
        hop = embed(RAISE, a, n) @ embed(LOWER, b, n)
        h += s * (hop + hop.conj().T)
    return h, graph.site_ids


def effective_delta_ratio(spec: ChainSpec) -> float:
    """Register-coupling ratio of the arm that remains after end losses.

    Losing the first (or last) chain site moves the effective register
    gap to ``register_gap + r``; the returned value is the cubic-law ratio
    at that distance when such a loss is present, else `delta_ratio`.
    """
    if 1 in spec.lost_sites or spec.m_chain in spec.lost_sites:
        d = spec.register_gap_nm + spec.spacing_nm
        return (spec.spacing_nm / d) ** 3
    return spec.delta_ratio


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
    if m_chain < n_lost:
        raise ValueError("chain shorter than the requested loss count")
    out = []
    if n_lost == 1:
        return [frozenset({s}) for s in range(1, m_chain + 1)]
    for a in range(1, m_chain + 1):
        for b in range(a + 2, m_chain + 1):
            out.append(frozenset({a, b}))
    return out
