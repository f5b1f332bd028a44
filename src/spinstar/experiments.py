"""Campaign drivers: decay fits, disorder Monte Carlo, spin-loss studies,
and field-gradient sensing on the distributed pair.

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

from .chain import ChainSpec, DisorderSpec, loss_configurations
from .entangle import max_entanglement_scan
from .lindblad import NoiseSpec

# NV- electron gyromagnetic ratio, rad s^-1 T^-1
GAMMA_NV = 2 * math.pi * 28.03e9
MIN_AMPLITUDE = 0.05   # weakest coherence oscillation a gradient is read from
UNIFORM_RTOL = 1e-9    # largest step deviation of a readout grid, relative to its mean step


class EstimationError(RuntimeError):
    """A sensing series is too short or too weak to extract a frequency."""


def stable_seed(master: int, purpose: str, *indices: int) -> int:
    """Deterministic child seed from (master, purpose, indices)."""
    key = [int(master) & 0xFFFFFFFF, zlib.crc32(purpose.encode())]
    key += [int(i) & 0xFFFFFFFF for i in indices]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _spec_for_length(m: int, base_spec: ChainSpec | None) -> ChainSpec:
    if base_spec is None:
        return ChainSpec(m_chain=m)
    return replace(base_spec, m_chain=m, lost_sites=frozenset(), disorder=None)


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

    # dx/db = x log(1/T2), whose limit is 0 where 1/T2 = 0 (x = 0 there)
    log_inv = np.log(inv, out=np.zeros_like(inv), where=inv > 0)

    def dsse(b):
        # envelope theorem: only x moves with b at the linear optimum
        coef, resid, x = _fit_linear_given_b(b, ms, inv, logs)
        return 2.0 * coef[1] * float(resid @ (log_inv * x))

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
            dis = DisorderSpec(variance_nm2=variance,
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

    `base_spec` carries spacing/coupling settings; its length, losses and
    disorder are replaced.
    """
    configs = loss_configurations(m_chain, n_lost)
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

    The field is ``B(x, y) = gx*x + gy*y`` (tesla, coordinates in meters)
    relative to a uniform bias, whose phase is common to both registers
    and cancels; a register at (x, y) precesses at ``GAMMA_NV*B(x, y)``.
    `d_nm` is the register pair separation; `times_s` the readout grid.
    """

    gx: float = 10.0
    gy: float = 10.0
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
        return GAMMA_NV * (grad.gx * p[0] + grad.gy * p[1])

    wa, wb = omega(pa), omega(pb)
    times = np.asarray(grad.times_s, dtype=float)
    coherence = pair[1, 2]  # <01| rho |10>
    # |01> advances at wb, |10> at wa; only the difference survives in <C>
    return 2.0 * (coherence * np.exp(1j * (wb - wa) * times)).real


def _prediction_cosine(y: np.ndarray, lag: int) -> float:
    """cos(w*lag*dt) of a sinusoid sampled every dt: the least-squares
    solution of y[k+lag] + y[k-lag] = 2*cos(w*lag*dt)*y[k]."""
    mid = y[lag:-lag]
    return float(np.clip(mid @ (y[2 * lag:] + y[:-2 * lag]) / (2.0 * (mid @ mid)), -1.0, 1.0))


def _sinusoid_gradient(times_s, series, d_nm: float) -> float:
    """Gradient ``w/(GAMMA_NV*D)`` of a series ``A*cos(w*t + phi)`` on a uniform grid.

    Linear prediction (after Prony; Kay, Fundamentals of Statistical
    Signal Processing I, 1993): lag 1 gives theta = w*dt, then the lag L
    nearest a quarter period, capped at (N-1)/3, gives w to rounding.
    L*theta <= pi/2 + theta/2 <= pi, so arccos at lag L needs no branch
    choice.  An all-zero series keeps w = 0 and fails the amplitude check.
    """
    t = np.asarray(times_s, dtype=float)
    y = np.asarray(series, dtype=float)
    if t.ndim != 1 or y.shape != t.shape or len(t) < 8:
        raise EstimationError("need at least 8 samples of a 1-d series")
    if not np.isfinite(t).all():
        raise EstimationError("readout times must be finite")
    dts = np.diff(t)
    if dts.min() <= 0:
        raise EstimationError("readout times must increase strictly")
    span = t[-1] - t[0]
    dt = span / (len(t) - 1)
    if np.abs(dts - dt).max() > UNIFORM_RTOL * dt:
        raise EstimationError(f"readout times must be uniform to {UNIFORM_RTOL:g} "
                              "of their mean step")
    if not np.isfinite(y).all():
        raise EstimationError("series must be finite")
    w = 0.0
    if y.any():
        theta = math.acos(_prediction_cosine(y, 1))
        cap = (len(t) - 1) // 3
        lag = cap if theta * cap < math.pi / 2 else int(math.pi / (2 * theta) + 0.5)
        w = math.acos(_prediction_cosine(y, lag)) / (lag * dt)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.cos(w * t), np.sin(w * t)]), y,
                               rcond=None)
    amp = float(np.hypot(*coef))
    if amp < MIN_AMPLITUDE:
        raise EstimationError(f"oscillation amplitude {amp:.3f} too weak to fit")
    if w * span < math.pi:
        raise EstimationError("series spans less than half an oscillation period")
    return w / (GAMMA_NV * d_nm * 1e-9)


def estimate_gradient_xy(
    pair: np.ndarray, grad: GradientSpec
) -> tuple[float, float]:
    """Two-round gradient readout: a pair along x, then a pair along y.

    Each series is read by :func:`_sinusoid_gradient`, x first, and
    gives ``w/(GAMMA_NV*D)``.  Readout times must be finite, strictly
    increasing and uniform to UNIFORM_RTOL of their mean step.  A series
    that spans less than half an oscillation period, or whose amplitude
    is below MIN_AMPLITUDE, raises EstimationError.
    """
    if not grad.times_s:
        raise ValueError("gradient spec carries no readout times")
    d = grad.d_nm
    sx = gradient_coherence(pair, grad, (0.0, 0.0), (d, 0.0))
    sy = gradient_coherence(pair, grad, (0.0, 0.0), (0.0, d))
    return (_sinusoid_gradient(grad.times_s, sx, d),
            _sinusoid_gradient(grad.times_s, sy, d))
