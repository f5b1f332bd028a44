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

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_coupling_graph, single_excitation_matrix
from .lindblad import (
    N_SAMPLES_DEFAULT,
    SERIES_DEGREE,
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
    DENSITY_TRACE_TOL,
    assert_density,
    partial_trace,
    pauli,
)

_YY = np.kron(pauli("y"), pauli("y"))
# eigenvalues this far below zero are treated as rounding noise; RK45
# trajectory states may dip to -1e-7 at the integrator tolerance
_CLAMP_TOL = 1e-7


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


def _support(vacuum, readings, coh) -> tuple:
    """(p00, p11, p22, a01, a02, a12): the diagonal of the register pair's
    support on {00, 01, 10} and the entries above it.

    `readings` are the probe readings of :func:`_probe_rows`, shape
    (..., 4): tr B, B[0,0], B[n-1,n-1] and B[0,n-1]; `coh` the vacuum
    coherences of sites 0 and n-1 at the same times, shape (..., 2).
    Pairs built from them are Hermitian and free of |11> weight by
    construction, so :func:`_check_support` checks them without building
    them.
    """
    trace, pop0, pop_last, b0l = np.moveaxis(readings, -1, 0)
    return (vacuum + np.real(trace - pop0 - pop_last), np.real(pop_last), np.real(pop0),
            np.conj(coh[..., 1]), np.conj(coh[..., 0]), np.conj(b0l))


def _pair_state(p00, p11, p22, a01, a02, a12) -> np.ndarray:
    """The 4x4 register-pair state of one support (see :func:`_support`)."""
    return np.array([[p00, a01, a02, 0], [np.conj(a01), p11, a12, 0],
                     [np.conj(a02), np.conj(a12), p22, 0], [0, 0, 0, 0]], dtype=complex)


def register_pair_state(traj: Trajectory, spec: ChainSpec | None = None) -> np.ndarray:
    """Two-register reduced states along a full-space trajectory, by
    partial trace, shape (N, 4, 4).

    Basis order is |register0, register_end>: 00, 01, 10, 11.
    """
    if spec is not None and spec.n_sites != traj.n_sites:
        raise ValueError("trajectory does not match the chain spec")
    n = traj.n_sites
    return np.array([partial_trace(rho, (0, n - 1)) for rho in traj.states])


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


def _concurrence_peak(series: np.ndarray) -> tuple:
    """(j, x, C): the largest concurrence ``C = 2|b_j(x)|`` over the pieces
    ``b_j(x) = sum_k series[j, k] x^k``, 0 <= x <= 1, of a Taylor table of
    B[0,last], at the smallest maximising (j, x).

    |b_j|^2 is a real polynomial in x, so its maximum on [0, 1] lies at
    x = 0, x = 1 or a real root of its derivative.  Every root is tried
    with its real part clipped to [0, 1]: each candidate is a point of the
    piece, so extra ones cannot lift C above the true maximum.
    """
    best = (0, 0.0, -1.0)
    for j, coef in enumerate(series):
        square = np.convolve(coef, coef.conj()).real     # rising powers of x
        slope = square[1:] * np.arange(1, len(square))
        x = np.sort(np.concatenate([[0.0, 1.0],
                                    np.clip(np.roots(slope[::-1]).real, 0.0, 1.0)]))
        c = 2.0 * np.abs(np.polyval(coef[::-1], x))
        i = int(np.argmax(c))
        if c[i] > best[2]:
            best = (j, float(x[i]), float(c[i]))
    return best


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


def _arm(spec: ChainSpec, noise: NoiseSpec, register_state: str) -> tuple:
    """(propagator, initial sector state) of the transfer arm of `spec`."""
    prop = SectorPropagator(single_excitation_matrix(build_coupling_graph(spec)), noise)
    return prop, initial_transfer_state(spec, register_state)


def _grid_readings(prop: SectorPropagator, state0: SectorState, window: float,
                   n_samples: int) -> tuple:
    """(times, readings, E_F): the probe readings of :func:`_probe_rows` on a
    uniform grid over [0, window], and the E_F of their register pairs.

    Every pair passes :func:`_check_support`; E_F comes from the
    concurrence 2|B[0,last]|, exact for pairs without |11> weight.

    :meth:`SectorPropagator.on_grid` carries the four probe rows of
    :func:`_probe_rows` rather than the whole block, and
    :meth:`SectorPropagator.grid_coherences` forms the two vacuum
    coherences from the same strides.
    """
    n = state0.n_sites
    times, readings, k = prop.on_grid(state0.block11, window, n_samples, _probe_rows(n))
    coh = prop.grid_coherences(state0.block01, times[1], n_samples, k, [0, n - 1])
    _check_support(*_support(state0.block00, readings, coh))
    return times, readings, eof_from_concurrence(2.0 * np.abs(readings[:, 3]))


def sector_series(
    spec: ChainSpec,
    noise: NoiseSpec,
    t_end: float | None = None,
    n_samples: int = N_SAMPLES_DEFAULT,
    register_state: str = "plus",
) -> tuple:
    """(times, B[0,0], B[last,last], tr B, E_F) on the grid of a scan.

    The grid is a scan's coarse grid over [0, t_end], the automatic
    window when `t_end` is None, never extended; populations and tr B are
    real, and E_F is read as the scan reads it.
    """
    window = default_window_s(spec) if t_end is None else t_end
    check_grid(window, n_samples)
    times, readings, efs = _grid_readings(*_arm(spec, noise, register_state), window,
                                          n_samples)
    trace, pop0, pop_last = readings[:, :3].T.real
    return times, pop0, pop_last, trace, efs


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
    samples).  The refinement spans the grid neighbours of the maximum,
    cut to one Taylor piece, ``1 / l1_norm``, either side of it, so on
    any grid it holds two pieces at most, up to rounding.  The block is
    carried once, from the grid to the start of that span
    (:meth:`SectorPropagator.restart`: on dense arms by the grid's own
    step, with one exponential only for an off-grid start), and
    :meth:`SectorPropagator.probe_series` tables the four probe readings
    over it.  E_F increases with the concurrence 2|B[0,last]|, whose
    square is a polynomial on each piece, so tau* is where
    :func:`_concurrence_peak` puts it, with no search tolerance.  The scan
    never reports less than the grid maximum, and the grid wins ties.  The
    readings at tau* are checked by :func:`_check_support`, and only
    the pair there is built as a 4x4 state.
    """
    window = default_window_s(spec) if t_end is None else t_end
    check_grid(window, n_samples)
    kappa = spec.kappa_angular
    prop, state0 = _arm(spec, noise, register_state)

    times, _, efs = _grid_readings(prop, state0, window, n_samples)
    i_max = int(np.argmax(efs))
    extended = False
    if t_end is None and i_max >= int(0.95 * (n_samples - 1)):
        window *= 2.0
        times, _, efs = _grid_readings(prop, state0, window, n_samples)
        i_max = int(np.argmax(efs))
        extended = True
    interior = 0 < i_max < n_samples - 1

    t_max, reach = times[i_max], 1.0 / prop.l1_norm
    k_lo = max(i_max - 1, 0)
    start = max(times[k_lo], t_max - reach)
    stop = min(times[min(i_max + 1, n_samples - 1)], t_max + reach)
    series = prop.probe_series(prop.restart(k_lo, start), stop - start,
                               _probe_rows(state0.n_sites))
    if not np.isfinite(series).all():
        raise IntegrationError("refinement table is not finite")
    width = (stop - start) / len(series)
    piece, x, c_star = _concurrence_peak(series[:, :, 3])
    tau_star, e_star = start + (piece + x) * width, eof_from_concurrence(c_star)
    if efs[i_max] >= e_star:   # never report worse than the grid
        u = (t_max - start) / width
        piece = min(int(u), len(series) - 1)
        x, tau_star, e_star = u - piece, t_max, float(efs[i_max])
    coh = prop.coherences(state0.block01, [tau_star])[0, [0, -1]]
    readings = x ** np.arange(SERIES_DEGREE + 1) @ series[piece]
    support = _support(state0.block00, readings, coh)
    _check_support(*support)

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
        pair_state=_pair_state(*support),
        kappa_angular=kappa,
    )
