"""Two-qubit entanglement measures and the transfer-time maximization scan.

Concurrence follows Wootters: with ``rho = A A^dagger`` from its
eigendecomposition, the decreasing ``l_i`` are the singular values of
``A^T (y@y) A`` (the square roots of the eigenvalues of
``rho (y@y) rho* (y@y)``), and C is ``max(0, l1 - l2 - l3 - l4)``.
Singular values keep the structurally zero ``l_i`` at rounding level,
where square roots of eigenvalues would lift them to ~1e-8.
Entanglement of formation is the binary entropy of
``(1 + sqrt(1 - C^2))/2``, base 2, so values live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_coupling_graph, single_excitation_matrix
from .lindblad import (
    N_SAMPLES_DEFAULT,
    IntegrationError,
    NoiseSpec,
    SectorPropagator,
    SectorState,
    Trajectory,
    check_grid,
    default_window_s,
    initial_transfer_state,
)
from .qops import (
    DENSITY_HERMITIAN_TOL,
    DENSITY_TRACE_TOL,
    assert_density,
    partial_trace,
    pauli,
)

_YY = np.kron(pauli("y"), pauli("y"))
# eigenvalues this far below zero are treated as rounding noise; RK45
# trajectory states may dip to -1e-7 at the integrator tolerance
_CLAMP_TOL = 1e-7
# golden-section refinement tolerance in dimensionless kappa*t
TAU_REFINE_KT = 1e-4


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence in [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    assert_density(rho, eig_tol=_CLAMP_TOL)
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    a = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(a.T @ _YY @ a, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def eof_from_concurrence(c):
    """E_F of a concurrence, elementwise over arrays."""
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    p = (1 + np.sqrt(1 - c * c)) / 2
    q = 1 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(q > 0, -p * np.log2(p) - q * np.log2(q), 0.0)
    return float(e) if e.ndim == 0 else e


def eof(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state, in [0, 1]."""
    return eof_from_concurrence(concurrence(rho))


def _check_support(p00, p11, p22, a01, a02, a12) -> None:
    """Check register-pair states given by their 3x3 support A on {00, 01, 10}.

    `p00`, `p11`, `p22` are the real diagonal of A and `a01`, `a02`, `a12`
    the entries above it.  Each state must be finite and of unit trace at
    the qops trace tolerance, and A has no eigenvalue below -_CLAMP_TOL
    exactly when all seven principal minors of ``A + _CLAMP_TOL*I`` are
    non-negative.  A state that fails came out of a propagation, so this
    raises IntegrationError.
    """
    if not all(np.isfinite(x).all() for x in (p00, p11, p22, a01, a02, a12)):
        raise IntegrationError("register-pair state is not finite")
    tr = np.ravel(p00 + p11 + p22)
    bad = np.abs(tr - 1.0) > DENSITY_TRACE_TOL
    if bad.any():
        raise IntegrationError(f"register-pair state trace {tr[bad][0]} deviates from 1")
    d0, d1, d2 = p00 + _CLAMP_TOL, p11 + _CLAMP_TOL, p22 + _CLAMP_TOL
    s01, s02, s12 = np.abs(a01) ** 2, np.abs(a02) ** 2, np.abs(a12) ** 2
    minors = (
        d0, d1, d2, d0 * d1 - s01, d0 * d2 - s02, d1 * d2 - s12,
        d0 * d1 * d2 + 2.0 * (a01 * a12 * np.conj(a02)).real
        - d0 * s12 - d1 * s02 - d2 * s01,
    )
    if min(np.min(m) for m in minors) < 0:
        raise IntegrationError(
            f"register-pair state has an eigenvalue below -{_CLAMP_TOL:.0e}")


def assert_sector_pairs(pairs: np.ndarray) -> None:
    """Check a stack of register-pair states, shape (..., 4, 4), in closed form.

    Each state must be finite and Hermitian at the qops density tolerance
    and carry no |11> weight: its |11> row and column are zero, the
    precondition of C = 2|rho_{10,01}|.  Its 3x3 support, with the
    off-diagonal entries averaged with their mirrors, then goes through
    the trace and positivity check of :func:`assert_sector_readings`.
    """
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


def sector_pair_eof(pairs: np.ndarray) -> np.ndarray:
    """E_F of a stack of register-pair states without |11> weight.

    Every state passes :func:`assert_sector_pairs`; E_F comes from the
    concurrence 2|rho_{10,01}|, exact for such states.
    """
    assert_sector_pairs(pairs)
    return eof_from_concurrence(2.0 * np.abs(pairs[..., 2, 1]))


def _support(vacuum, trace, pop0, pop_last, coh0, coh_last, b0l) -> tuple:
    """(p00, p11, p22, a01, a02, a12): the diagonal of the register pair's
    support on {00, 01, 10} and the entries above it, from the sector
    entries it reads.

    `trace` is tr B, `pop0`/`pop_last` and `b0l` are B[0,0], B[n-1,n-1]
    and B[0,n-1], `coh0`/`coh_last` the matching vacuum coherences.
    """
    return (vacuum + np.real(trace - pop0 - pop_last), np.real(pop_last), np.real(pop0),
            np.conj(coh_last), np.conj(coh0), np.conj(b0l))


def assert_sector_readings(vacuum, trace, pop0, pop_last, coh0, coh_last, b0l) -> None:
    """Check the register-pair states of the sector readings of :func:`_support`.

    Pairs built from readings (:func:`_pair_states`) are Hermitian and free
    of |11> weight by construction, so this is :func:`assert_sector_pairs`
    on them, verdict for verdict, without building them: finiteness, the
    trace and the seven principal minors, on the same values.
    """
    _check_support(*_support(vacuum, trace, pop0, pop_last, coh0, coh_last, b0l))


def _pair_states(vacuum, trace, pop0, pop_last, coh0, coh_last, b0l) -> np.ndarray:
    """Register-pair states, shape (..., 4, 4), from the sector entries they
    read (see :func:`_support`)."""
    p00, p11, p22, a01, a02, a12 = _support(vacuum, trace, pop0, pop_last,
                                            coh0, coh_last, b0l)
    pair = np.zeros(np.shape(b0l) + (4, 4), dtype=complex)
    pair[..., 0, 0] = p00
    pair[..., 1, 1] = p11
    pair[..., 2, 2] = p22
    for (i, j), a in zip(((0, 1), (0, 2), (1, 2)), (a01, a02, a12)):
        pair[..., i, j] = a
        pair[..., j, i] = np.conj(a)
    return pair


def pair_state_from_sector(state: SectorState) -> np.ndarray:
    """Reduced state of the two registers (sites 0 and n-1) from sector blocks.

    Basis order is |register0, register_end>: 00, 01, 10, 11.  States in
    the 0+1 excitation span have no |11> weight.
    """
    b, last = state.block11, state.n_sites - 1
    return _pair_states(state.block00, np.trace(b), b[0, 0], b[last, last],
                        state.block01[0], state.block01[last], b[0, last])


def register_pair_state(traj: Trajectory, spec: ChainSpec | None = None) -> list:
    """Time series of the two-register reduced state along a trajectory."""
    if spec is not None and spec.n_sites != traj.n_sites:
        raise ValueError("trajectory does not match the chain spec")
    if traj.kind == "sector":
        return [pair_state_from_sector(s) for s in traj.states]
    n = traj.n_sites
    return [partial_trace(rho, (0, n - 1)) for rho in traj.states]


@dataclass
class EmResult:
    """Outcome of a transfer-time scan.

    `curve_kt`/`curve_ef` sample the entanglement of formation over the
    scan window (the refined maximum is inserted into the curve, so `e_m`
    equals the curve maximum).  `tau_star_kt` is dimensionless kappa*t,
    `tau_star_s` the same time in seconds.  `interior` flags whether the
    maximum fell strictly inside the window; `extended` whether the
    window was auto-doubled once.  `pair_state` is the register-pair
    state at `tau_star_s`.
    """

    tau_star_kt: float
    tau_star_s: float
    e_m: float
    curve_kt: np.ndarray
    curve_ef: np.ndarray
    interior: bool
    extended: bool
    pair_state: np.ndarray
    kappa_angular: float = 1.0

    def summary(self) -> dict:
        return {
            "tau_star_kt": self.tau_star_kt,
            "tau_star_s": self.tau_star_s,
            "e_m": self.e_m,
            "interior": self.interior,
            "extended": self.extended,
        }


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


def _probe_rows(n: int) -> np.ndarray:
    """The (n^2, 4) rows r whose readings r^T vec(B) give tr B, B[0,0],
    B[last,last] and B[0,last], the only entries of B a pair state reads."""
    last = n - 1
    probes = np.zeros((n * n, 4))
    probes[np.arange(n) * (n + 1), 0] = 1.0
    probes[0, 1] = 1.0
    probes[last * (n + 1), 2] = 1.0
    probes[last, 3] = 1.0
    return probes


def _probe_readings(state0: SectorState, coh: np.ndarray, readings: np.ndarray) -> tuple:
    """The sector readings of :func:`_support` from the probe readings and
    the vacuum coherences `coh` of sites 0 and n-1, shape (N, 2), at the
    same times."""
    trace, pop0, pop_last, b0l = readings.T
    return state0.block00, trace, pop0, pop_last, coh[:, 0], coh[:, 1], b0l


def _coarse_pass(prop: SectorPropagator, state0: SectorState, window: float,
                 n_samples: int) -> tuple:
    """E_F of the register pair on a uniform grid over [0, window].

    :meth:`SectorPropagator.on_grid` carries the four probe rows of
    :func:`_probe_rows` rather than the whole block, and
    :meth:`SectorPropagator.grid_coherences` forms the two vacuum
    coherences from the same strides.  Every sample passes
    :func:`assert_sector_readings`, and E_F comes from 2|B[0,last]|.

    Returns (times, E_F, K, B at the long strides iK dt).
    """
    n = state0.n_sites
    times, readings, k, blocks = prop.on_grid(state0.block11, window, n_samples,
                                              _probe_rows(n))
    coh = prop.grid_coherences(state0.block01, times[1], n_samples, k, [0, n - 1])
    assert_sector_readings(*_probe_readings(state0, coh, readings))
    return times, eof_from_concurrence(2.0 * np.abs(readings[:, 3])), k, blocks


def max_entanglement_scan(
    spec: ChainSpec,
    noise: NoiseSpec,
    t_end: float | None = None,
    n_samples: int = N_SAMPLES_DEFAULT,
    register_state: str = "plus",
) -> EmResult:
    """Scan E_F over transfer time and refine the maximum.

    A coarse pass evaluates `n_samples` equally spaced times exactly
    (doubling the window once if the maximum lands in the final 5% of
    samples).  The block is then advanced once, to the grid point `lo`
    before the maximum, and :meth:`SectorPropagator.probe_series` tables
    the four probe readings over [lo, hi] up to the grid point after it.
    A golden-section search on that table, reading E_F from the closed-form
    concurrence 2|B[0,last]|, locates tau* to TAU_REFINE_KT in kappa*t.
    The readings of every visited point and of tau* are checked together by
    :func:`assert_sector_readings` before the result is returned, and only
    the pair at tau* is built as a 4x4 state.
    """
    window = default_window_s(spec) if t_end is None else t_end
    check_grid(window, n_samples)
    kappa = spec.kappa_angular
    prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
    state0 = initial_transfer_state(spec, register_state, form="sector")

    times, efs, stride, blocks = _coarse_pass(prop, state0, window, n_samples)
    i_max = int(np.argmax(efs))
    extended = False
    if t_end is None and i_max >= int(0.95 * (n_samples - 1)):
        window *= 2.0
        times, efs, stride, blocks = _coarse_pass(prop, state0, window, n_samples)
        i_max = int(np.argmax(efs))
        extended = True
    interior = 0 < i_max < n_samples - 1

    k_lo = max(i_max - 1, 0)
    lo, hi = times[k_lo], times[min(i_max + 1, n_samples - 1)]
    # restart from the last long stride at or before lo
    col = k_lo // stride
    t_col = times[col * stride]
    at_col = SectorState(state0.block00, prop.coherences(state0.block01, [t_col])[0],
                         blocks[col])
    at_lo = prop.advance(at_col, lo - t_col)
    series = prop.probe_series(at_lo.block11, hi - lo, _probe_rows(state0.n_sites))
    visited = []

    def ef_at(t: float) -> float:
        visited.append(t)
        return eof_from_concurrence(2.0 * abs(series([t - lo])[0, 3]))

    tau_star, e_star = _golden_max(ef_at, lo, hi, TAU_REFINE_KT / kappa)
    if efs[i_max] >= e_star:   # never report worse than the grid
        tau_star, e_star = times[i_max], float(efs[i_max])
    checked = np.array(visited + [tau_star])
    coh = prop.coherences(state0.block01, checked)[:, [0, -1]]
    sector = _probe_readings(state0, coh, series(checked - lo))
    assert_sector_readings(*sector)

    insert = int(np.searchsorted(times, tau_star))
    curve_t = np.insert(times, insert, tau_star)
    curve_e = np.insert(efs, insert, e_star)
    return EmResult(
        tau_star_kt=kappa * tau_star,
        tau_star_s=tau_star,
        e_m=float(e_star),
        curve_kt=kappa * curve_t,
        curve_ef=curve_e,
        interior=interior,
        extended=extended,
        pair_state=_pair_states(sector[0], *(x[-1] for x in sector[1:])),
        kappa_angular=kappa,
    )
