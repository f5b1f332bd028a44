"""Campaign drivers: length/noise sweeps, decay fits, disorder Monte Carlo,
spin-loss studies, and field-gradient sensing on the distributed pair.

Every campaign is a pure function of its specification and a single seed;
per-run randomness derives from stable spawn keys, so results are
reproducible and independent of execution order.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec, DisorderSpec, loss_configurations, validate_star_geometry, GeometryError
from .entangle import EmResult, max_entanglement_scan
from .lindblad import NoiseSpec

# NV- electron gyromagnetic ratio, rad s^-1 T^-1
GAMMA_NV = 2 * math.pi * 28.03e9
MIN_AMPLITUDE = 0.05   # weakest coherence oscillation a gradient is read from


class EstimationError(RuntimeError):
    """A sensing series is too short or too weak to extract a frequency."""


def stable_seed(master: int, purpose: str, *indices: int) -> int:
    """Deterministic child seed from (master, purpose, indices)."""
    key = [int(master) & 0xFFFFFFFF, zlib.crc32(purpose.encode())]
    key += [int(i) & 0xFFFFFFFF for i in indices]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


# -- length sweep ------------------------------------------------------------

@dataclass(frozen=True)
class LengthPoint:
    m_chain: int
    t2_s: float
    result: EmResult

    @property
    def e_m(self) -> float:
        return self.result.e_m


def _spec_for_length(m: int, base_spec: ChainSpec | None) -> ChainSpec:
    if base_spec is None:
        return ChainSpec(m_chain=m)
    return replace(base_spec, m_chain=m, lost_sites=frozenset(), disorder=None)


def sweep_length(
    ms, noise: NoiseSpec, n_outer: int = 3,
    base_spec: ChainSpec | None = None, **scan_kwargs
) -> list[LengthPoint]:
    """One transfer scan per chain length, geometry-validated up front.

    `base_spec` carries spacing/coupling settings; its length, losses and
    disorder are replaced per sweep point.
    """
    ms = [int(m) for m in ms]
    for m in ms:
        if not validate_star_geometry(n_outer, m):
            raise GeometryError(
                f"N={n_outer}, M={m} violates the arm-count bound")
    return [LengthPoint(m, noise.t2_s,
                        max_entanglement_scan(_spec_for_length(m, base_spec), noise,
                                              **scan_kwargs))
            for m in ms]


# -- exponential decay fit ---------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Parameters of  e_m = prefactor * exp(-a * (1/t2)**b * m)."""

    prefactor: float
    a: float
    b: float
    residual: float   # rms of log-space residuals


def _fit_linear_given_b(b: float, ms, inv_t2s, logs):
    """(coef, residuals, x) of the linear fit of logs on x = (1/t2)^b m."""
    x = (inv_t2s ** b) * ms
    design = np.column_stack([np.ones_like(x), -x])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return coef, logs - design @ coef, x


def fit_exponential(points) -> FitResult:
    """Least squares of log e_m against a stretched-rate decay in (1/T2, M).

    `points` holds (m, t2_s, e_m) rows over a grid with at least three
    distinct lengths and three distinct coherence times.  For a given
    exponent b the prefactor and rate are a linear fit.  b is the
    argmin of the SSE on 97 geometric points of [1e-3, 50], made exact
    as the root of dSSE/db between that point's two neighbours.
    Nonpositive e_m rows are dropped with a warning; rows are sorted,
    so their order does not reach the result.
    """
    from scipy.optimize import brentq

    rows = sorted((int(m), float(t2), float(em)) for m, t2, em in points)
    usable = [r for r in rows if r[2] > 0]
    if len(usable) < len(rows):
        warnings.warn(f"dropping {len(rows) - len(usable)} nonpositive e_m rows")
    if len(usable) < 6:
        raise ValueError("need at least 6 usable (m, t2, e_m) points")
    ms = np.array([r[0] for r in usable], dtype=float)
    inv = np.array([1.0 / r[1] for r in usable])
    logs = np.log(np.array([r[2] for r in usable]))
    if len(set(ms)) < 3 or len(set(np.round(inv, 12))) < 3:
        raise ValueError("need at least 3 distinct lengths and 3 distinct t2 values")

    def sse(b):
        resid = _fit_linear_given_b(b, ms, inv, logs)[1]
        return float(resid @ resid)

    def dsse(b):
        # envelope theorem: only x moves with b at the linear optimum
        coef, resid, x = _fit_linear_given_b(b, ms, inv, logs)
        return 2.0 * coef[1] * float(resid @ (np.log(inv) * x))

    grid = np.geomspace(1e-3, 50.0, 97)
    i = int(np.argmin([sse(b) for b in grid]))
    left, right = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    # an optimum pinned at an end of the grid stays there
    b_opt = brentq(dsse, left, right, xtol=1e-15) if dsse(left) < 0 < dsse(right) else grid[i]

    coef, resid, _ = _fit_linear_given_b(b_opt, ms, inv, logs)
    return FitResult(
        prefactor=float(np.exp(coef[0])),
        a=float(coef[1]),
        b=float(b_opt),
        residual=math.sqrt(float(resid @ resid) / len(usable)),
    )


# -- disorder Monte Carlo ----------------------------------------------------

@dataclass(frozen=True)
class DisorderPoint:
    m_chain: int
    mean_em: float
    std_em: float
    values: tuple


def disorder_monte_carlo(
    ms,
    noise: NoiseSpec,
    runs: int = 100,
    variance: float = 0.25,
    seed: int = 0,
    base_spec: ChainSpec | None = None,
    **scan_kwargs,
) -> list[DisorderPoint]:
    """Mean and spread of e_m over independently disordered chains.

    Run k of length M uses the child seed (seed, "disorder", M, k), so a
    fixed master seed reproduces the table exactly.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    out = []
    for m in ms:
        m = int(m)
        base = _spec_for_length(m, base_spec)
        values = []
        for run in range(runs):
            dis = DisorderSpec(mean_nm=base.spacing_nm, variance_nm2=variance,
                               seed=stable_seed(seed, "disorder", m, run))
            values.append(max_entanglement_scan(replace(base, disorder=dis), noise,
                                                **scan_kwargs).e_m)
        arr = np.array(values)
        out.append(DisorderPoint(m, float(arr.mean()), float(arr.std()),
                                 tuple(float(v) for v in arr)))
    return out


# -- spin-loss study ---------------------------------------------------------

@dataclass(frozen=True)
class LossReport:
    """Per-configuration scans for a fixed loss count, plus their mean.

    `expectation` is None when no admissible configuration exists.
    """

    m_chain: int
    n_lost: int
    configs: tuple
    results: tuple
    expectation: float | None


def loss_study(
    m_chain: int, noise: NoiseSpec, n_lost: int,
    base_spec: ChainSpec | None = None, **scan_kwargs
) -> LossReport:
    """Scan every admissible loss configuration of the given size.

    `base_spec` carries spacing/coupling settings, as in :func:`sweep_length`.
    """
    configs = loss_configurations(m_chain, n_lost)
    configs = sorted(configs, key=sorted)
    base = _spec_for_length(m_chain, base_spec)
    results = [max_entanglement_scan(replace(base, lost_sites=cfg), noise, **scan_kwargs)
               for cfg in configs]
    expectation = (float(np.mean([r.e_m for r in results]))
                   if results else None)
    return LossReport(
        m_chain=m_chain,
        n_lost=n_lost,
        configs=tuple(tuple(sorted(c)) for c in configs),
        results=tuple(results),
        expectation=expectation,
    )


# -- magnetic-field-gradient sensing ----------------------------------------

@dataclass(frozen=True)
class GradientSpec:
    """Linear field map and sampling grid for pair-coherence sensing.

    The field is ``B(x, y) = b0 + gx*x + gy*y`` (tesla, coordinates in
    meters); a register at (x, y) precesses at ``omega0 + gamma*B(x, y)``.
    `d_nm` is the register pair separation; `times_s` the readout grid.
    """

    b0_tesla: float = 0.0
    gx: float = 10.0
    gy: float = 10.0
    gamma: float = GAMMA_NV
    omega0: float = 0.0
    d_nm: float = 50.0
    times_s: tuple = ()

    def __post_init__(self):
        if not self.d_nm > 0:
            raise ValueError("pair separation must be positive")
        times = tuple(float(t) for t in self.times_s)
        object.__setattr__(self, "times_s", times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must ascend strictly")


def gradient_coherence(
    pair: np.ndarray, grad: GradientSpec, pos_a_nm, pos_b_nm
) -> np.ndarray:
    """Pair-coherence readout <C>(t) under local field-dependent phases.

    Each register's ``|1>`` level accumulates phase at its local
    transition frequency; the observable is the cross coherence
    ``|10><01| + |01><10|``.  For the ideal pair along a gradient axis
    this is exactly ``cos(gamma*G*D*t)``.
    """
    pair = np.asarray(pair, dtype=complex)
    if pair.shape != (4, 4):
        raise ValueError("pair state must be a two-qubit density matrix")
    pa = np.asarray(pos_a_nm, dtype=float) * 1e-9
    pb = np.asarray(pos_b_nm, dtype=float) * 1e-9
    if np.allclose(pa, pb):
        raise ValueError("registers coincide: zero separation")

    def omega(p):
        return grad.omega0 + grad.gamma * (grad.b0_tesla + grad.gx * p[0] + grad.gy * p[1])

    wa, wb = omega(pa), omega(pb)
    times = np.asarray(grad.times_s, dtype=float)
    coherence = pair[1, 2]  # <01| rho |10>
    # |01> advances at wb, |10> at wa; only the difference survives in <C>
    return 2.0 * (coherence * np.exp(1j * (wb - wa) * times)).real


def _sinusoid_sse(t: np.ndarray, y: np.ndarray, w_grid: np.ndarray) -> np.ndarray:
    """Least-squares residual of y against a*cos(w t) + b*sin(w t), per w.

    `y` is one series, shape (T,), or S of them as columns, (T, S); the
    result is (W,) or (W, S).  The basis [a, b] = [cos(w t), sin(w t)]
    is built once for all series.  Per w, the columns are pivoted so
    that a is the longer, q1 = a/|a|, and b is orthogonalised against q1
    by Gram-Schmidt, run twice, leaving b_perp.  The triangular factor
    gives the singular values: s1^2 + s2^2 = |a|^2 + |b|^2 and
    s1 s2 = |a| |b_perp|.  As ``lstsq(rcond=None)`` does, the second
    direction q2 = b_perp/|b_perp| is dropped where
    s2 <= eps*max(T, 2)*s1, and the residual is
    |y|^2 - (q1.y)^2 - keep*(q2.y)^2, one (W, T) @ (T, S) product per
    direction.
    """
    phase = w_grid[:, None] * t
    q1 = np.cos(phase)
    b_perp = np.sin(phase, out=phase)
    na2, nb2 = np.einsum("wt,wt->w", q1, q1), np.einsum("wt,wt->w", b_perp, b_perp)
    swap = nb2 > na2
    q1[swap], b_perp[swap] = b_perp[swap], q1[swap]
    r11 = np.sqrt(np.maximum(na2, nb2))
    q1 /= r11[:, None]
    for _ in range(2):
        b_perp -= np.einsum("wt,wt->w", q1, b_perp)[:, None] * q1
    r22 = np.sqrt(np.einsum("wt,wt->w", b_perp, b_perp))
    total, det = na2 + nb2, r11 * r22
    s1 = np.sqrt(0.5 * (total + np.sqrt(np.maximum(total * total - 4.0 * det * det, 0.0))))
    keep = det / s1 > np.finfo(float).eps * max(len(t), 2) * s1
    b_perp *= (keep / np.where(keep, r22, 1.0))[:, None]   # q2, or 0 where dropped
    return np.einsum("t...,t...->...", y, y) - (q1 @ y) ** 2 - (b_perp @ y) ** 2


def _coarse_frequencies(times_s, *series) -> tuple:
    """Checked readout times, the series as float arrays, and the coarse
    frequency of each series: the argmin of :func:`_sinusoid_sse` on 2048
    frequencies from pi/span to pi/min(dt), one basis for all series."""
    t = np.asarray(times_s, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in series]
    if t.ndim != 1 or any(y.shape != t.shape for y in ys) or len(t) < 8:
        raise EstimationError("need at least 8 samples of a 1-d series")
    if not np.isfinite(t).all():
        raise EstimationError("readout times must be finite")
    dts = np.diff(t)
    if dts.min() <= 0:
        raise EstimationError("readout times must increase strictly")
    if not all(np.isfinite(y).all() for y in ys):
        raise EstimationError("series must be finite")
    w_grid = np.linspace(math.pi / (t[-1] - t[0]), math.pi / dts.min(), 2048)
    sse = _sinusoid_sse(t, np.stack(ys, axis=1), w_grid)
    return t, ys, w_grid[np.argmin(sse, axis=0)]


def _refine_frequency(t: np.ndarray, y: np.ndarray, w0: float, gamma: float,
                      d_nm: float, min_amplitude: float) -> float:
    """Gradient from a nonlinear fit of ``A*cos(w*t + phi)`` seeded at `w0`."""
    from scipy.optimize import curve_fit

    def model(tt, amp, w, phi):
        return amp * np.cos(w * tt + phi)

    coef, *_ = np.linalg.lstsq(np.column_stack([np.cos(w0 * t), np.sin(w0 * t)]), y,
                               rcond=None)
    a0 = float(np.hypot(*coef))
    phi0 = float(math.atan2(-coef[1], coef[0]))
    popt, _ = curve_fit(model, t, y, p0=(a0, w0, phi0), maxfev=20000)
    amp, w_fit = abs(float(popt[0])), abs(float(popt[1]))
    if amp < min_amplitude:
        raise EstimationError(f"oscillation amplitude {amp:.3f} too weak to fit")
    if w_fit * (t[-1] - t[0]) < math.pi:
        raise EstimationError("series spans less than half an oscillation period")
    return w_fit / (gamma * d_nm * 1e-9)


def estimate_gradient_xy(
    pair: np.ndarray, grad: GradientSpec
) -> tuple[float, float]:
    """Two-round gradient readout: a pair along x, then a pair along y.

    Both readouts share the time grid, so one coarse search projects the
    two series on one basis.  Each series is then fitted with
    ``A*cos(w*t + phi)``, x first, seeded at its coarse frequency, and
    gives ``w/(gamma*D)``.  Readout times must be finite and strictly
    increasing.  A series that spans less than half an oscillation
    period, or whose fitted amplitude is below MIN_AMPLITUDE, raises
    EstimationError.
    """
    if not grad.times_s:
        raise ValueError("gradient spec carries no readout times")
    d = grad.d_nm
    sx = gradient_coherence(pair, grad, (0.0, 0.0), (d, 0.0))
    sy = gradient_coherence(pair, grad, (0.0, 0.0), (0.0, d))
    t, (yx, yy), (wx, wy) = _coarse_frequencies(grad.times_s, sx, sy)
    gx = _refine_frequency(t, yx, float(wx), grad.gamma, d, MIN_AMPLITUDE)
    gy = _refine_frequency(t, yy, float(wy), grad.gamma, d, MIN_AMPLITUDE)
    return gx, gy


def distributed_pair(spec: ChainSpec, noise: NoiseSpec, **scan_kwargs) -> np.ndarray:
    """Register pair state at the optimal transfer time of a chain arm."""
    return max_entanglement_scan(spec, noise, **scan_kwargs).pair_state
