"""Open-system dynamics with per-site sigma_z dephasing.

The master equation is

    drho/dt = -i [H, rho] + sum_i Gamma (Z_i rho Z_i - rho),

every site dephasing at the same rate Gamma = 1/T2 (Z_i dagger Z_i is
the identity, which collapses the anticommutator term).  A single-site
coherence therefore decays as exp(-2*Gamma*t).

Two paths produce identical physics:

* :func:`evolve` integrates the full 2^n density matrix with adaptive
  embedded Runge-Kutta (4)5 (the oracle path, practical up to a handful
  of sites);
* :class:`SectorPropagator` exploits excitation-number conservation to
  propagate only the zero- and one-excitation blocks, exactly; it scales
  to arbitrary chain lengths.  The one-excitation block ``B`` is
  Hermitian, so the propagator carries it in real arithmetic as its real
  form ``R = Re B + Im B``.

Neither renormalizes: :func:`evolve` reports trace drift, and the sector
readings are checked where they are read (:mod:`spinstar.entangle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .qops import assert_density, n_qubits

RTOL_DEFAULT = 1e-8
ATOL_DEFAULT = 1e-12
TRACE_DRIFT_TOL = 1e-6
N_SAMPLES_DEFAULT = 2001
# Dimensionless window: kappa*t_end = WINDOW_KT * (M+2)/5
WINDOW_KT = 40.0


class IntegrationError(RuntimeError):
    """The propagation failed or produced a state that violates a physical bound."""


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform dephasing: per-site rate 1/t2_s with the sigma_z operator.

    An infinite `t2_s` turns the dissipator off.
    """

    t2_s: float = 1e-3

    def __post_init__(self):
        if not self.t2_s > 0:
            raise ValueError("t2_s must be positive (use math.inf for no noise)")

    @property
    def rate(self) -> float:
        return 0.0 if math.isinf(self.t2_s) else 1.0 / self.t2_s


@dataclass
class SectorState:
    """Density matrix restricted to the 0- and 1-excitation sectors.

    block00 is the vacuum population, block01[i] the coherence
    <site i excited| rho |vacuum>, block11 the one-excitation block.
    """

    block00: float
    block01: np.ndarray
    block11: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.block01)

    def to_full(self) -> np.ndarray:
        """Embed into the full 2^n space (site 0 as the leftmost factor)."""
        n = self.n_sites
        dim = 2 ** n
        rho = np.zeros((dim, dim), dtype=complex)
        idx = [2 ** (n - 1 - i) for i in range(n)]
        rho[0, 0] = self.block00
        for i, bi in enumerate(idx):
            rho[bi, 0] = self.block01[i]
            rho[0, bi] = np.conj(self.block01[i])
            for j, bj in enumerate(idx):
                rho[bi, bj] = self.block11[i, j]
        return rho


@dataclass
class Trajectory:
    """Full-space solution of the master equation at `times_s`.

    `states` holds the density matrices as one (N, 2^n, 2^n) array.
    """

    times_s: np.ndarray
    n_sites: int
    states: np.ndarray


def initial_transfer_state(spec: ChainSpec, register_state: str = "plus") -> SectorState:
    """State used for transfer runs: register 0 prepared, all else ``|0>``.

    `register_state` selects the register-0 preparation: ``"plus"`` is the
    coherent superposition ``(|0> + |1>)/sqrt(2)``, ``"one"`` the bare
    excitation ``|1>``.  :meth:`SectorState.to_full` gives the density
    matrix on the full space.
    """
    n = spec.n_sites
    if register_state == "plus":
        block00 = 0.5
        block01 = np.zeros(n, dtype=complex)
        block01[0] = 0.5
        block11 = np.zeros((n, n), dtype=complex)
        block11[0, 0] = 0.5
    elif register_state == "one":
        block00 = 0.0
        block01 = np.zeros(n, dtype=complex)
        block11 = np.zeros((n, n), dtype=complex)
        block11[0, 0] = 1.0
    else:
        raise ValueError("register_state must be 'plus' or 'one'")
    return SectorState(block00, block01, block11)


def _dephasing_mask(n: int) -> np.ndarray:
    """Entrywise dissipator factor: sum_i (z_i(a) z_i(b) - 1), row i of z
    the diagonal of sigma_z on site i over the 2^n basis."""
    z = 1.0 - 2.0 * ((np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    return z.T @ z - float(n)


def _master_equation(h: np.ndarray, noise: NoiseSpec, shape: tuple):
    """drho/dt as a function of rho, for states of `shape` under `h` and
    `noise`; the dephasing mask is built here, once."""
    h = np.asarray(h, dtype=complex)
    if h.shape != shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    gamma = noise.rate
    mask = gamma * _dephasing_mask(n_qubits(shape[0])) if gamma > 0 else None

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        if mask is not None:
            out += mask * rho
        return out

    return rhs


def _check_trace_drift(trace_series: np.ndarray) -> None:
    drift = float(np.abs(trace_series - 1.0).max())
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL}")


def check_grid(t_end: float, n_samples: int) -> None:
    """Reject a sampling grid that is empty, runs backwards or never ends."""
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")


def evolve(
    rho0: np.ndarray,
    h: np.ndarray,
    noise: NoiseSpec,
    t_end: float,
    n_samples: int = N_SAMPLES_DEFAULT,
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
) -> Trajectory:
    """Integrate the master equation on the full Hilbert space.

    Stores `n_samples` equally spaced states on [0, t_end].  Trace drift
    beyond the tolerance raises; states are never silently renormalized.
    """
    from scipy.integrate import solve_ivp

    check_grid(t_end, n_samples)
    rho0 = np.asarray(rho0, dtype=complex)
    assert_density(rho0)
    dim = rho0.shape[0]
    rhs = _master_equation(h, noise, rho0.shape)
    times = np.linspace(0.0, t_end, n_samples)
    sol = solve_ivp(lambda _t, y: rhs(y.reshape(dim, dim)).ravel(), (0.0, t_end),
                    rho0.ravel(), t_eval=times, method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    states = sol.y.T.reshape(-1, dim, dim)
    _check_trace_drift(np.trace(states, axis1=1, axis2=2).real)
    return Trajectory(times_s=times, n_sites=n_qubits(dim), states=states)


# Crossover of SectorPropagator's dense branch, in n^2, the size of the
# generator L_R of an n-site arm.  Measured with one BLAS thread on a
# 2-vCPU Xeon VM (numpy 2.4, scipy 1.17), default arms at T2 = 1 ms,
# medians of six runs; on_grid over 2001 samples of the default window
# with the scan's probe rows; peak memory as traced by tracemalloc over
# one on_grid.  The sparse columns are the Chebyshev branch, the dense
# ones _expm:
#
#   M   n^2 |  on_grid, ms  | peak, MB
#           | sparse  dense | sparse dense
#   3    25 |   7.0    0.5  |  0.20  0.30
#   5    49 |   9.3    0.6  |  0.23  0.45
#   7    81 |  10.8    1.4  |  0.27  0.76
#   9   121 |  11.9    4.2  |  0.33  1.55
#  11   169 |  10.1    8.7  |  0.40  3.00
#  13   225 |  13.6   17.1  |  0.47  4.89
#  15   289 |  14.3   37.0  |  0.55  8.72
#
# The host's speed drifts by up to 2x between runs.  The two branches
# meet between n^2 = 169 and 225; past that the dense working set also
# grows as n^4 (_expm holds q + 1 + r <= 10 n^2 x n^2 arrays).
DENSE_GRID_MAX = 169

# Degree of probe_series.  On pieces of width s with ||L_R||_1 s <= 1 the
# terms past this degree sum below 1/19! * (1 + 1/20 + ...) < 2^-53
# relative to ||vec R||_1, so the series is exact in double precision.
SERIES_DEGREE = 18
_INV_FACTORIALS = 1.0 / np.array([math.factorial(k) for k in range(SERIES_DEGREE + 1)])
# _THETA[m - 1]: the largest ||A||_1 at which the first term dropped from
# the degree-m series of exp(A) - I, ||A||^(m+1)/(m+1)!, stays below
# 2^-53 ||A||
_THETA = np.array([(2.0 ** -53 * math.factorial(m + 1)) ** (1.0 / m)
                   for m in range(1, SERIES_DEGREE + 1)])


def _taylor_blocks(degree: int) -> np.ndarray:
    """Paterson-Stockmeyer table of the degree-`degree` series of exp(A) - I:
    row j holds the coefficients of A^(jq) .. A^(jq + q), q = ceil(sqrt
    degree), the last column zero except in the last row."""
    q = math.isqrt(degree - 1) + 1
    r = -(-degree // q)
    coef = np.zeros(r * q + 1)
    coef[1:degree + 1] = _INV_FACTORIALS[1:degree + 1]
    table = np.zeros((r, q + 1))
    table[:, :q] = coef[:-1].reshape(r, q)
    table[-1, q] = coef[-1]
    return table


_TAYLOR_BLOCKS = [_taylor_blocks(m) for m in range(1, SERIES_DEGREE + 1)]


def _expm(l: np.ndarray, t: float, l1_norm: float) -> np.ndarray:
    """exp(l t) of a real square `l` with ||l||_1 = `l1_norm`, by scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).

    A = l t 2^-s has ||A||_1 <= 1, where the Taylor series of
    N = exp(A) - I to the degree from _THETA (at most SERIES_DEGREE) is
    exact in double precision.  Paterson-Stockmeyer sums it from the
    stacked powers I, A, .., A^q, every block in one product.  The s
    squarings take N <- N N + 2 N = (I + N)^2 - I, so the identity enters
    only the result: squaring I + N itself would round away the part of
    N below eps on the diagonal, s times over, and with it the trace that
    the Haken-Strobl dynamics conserve exactly.
    """
    norm = l1_norm * abs(t)
    squarings = math.frexp(norm)[1] if norm > 1.0 else 0
    table = _TAYLOR_BLOCKS[int(np.searchsorted(_THETA, math.ldexp(norm, -squarings)))]
    r, q = table.shape[0], table.shape[1] - 1
    n = l.shape[0]
    powers = np.empty((q + 1, n, n))
    powers[0] = np.eye(n)
    np.multiply(l, math.ldexp(t, -squarings), out=powers[1])
    for j in range(2, q + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    sums = (table @ powers.reshape(q + 1, -1)).reshape(r, n, n)
    out = sums[-1]
    for j in range(r - 2, -1, -1):
        out = powers[q] @ out + sums[j]
    for _ in range(squarings):
        out = out @ out + 2.0 * out
    out.flat[::n + 1] += 1.0
    return out


def _transpose_index(n: int) -> np.ndarray:
    """t with ``vec(R^T) = vec(R)[t]`` for row-major vec of an n x n R."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def _real_form(block: np.ndarray) -> np.ndarray:
    """R = Re B + Im B of a Hermitian `block` B: its n^2 real degrees of
    freedom, symmetric part Re B and antisymmetric part Im B, with
    ``||R||_F = ||B||_F``."""
    return block.real + block.imag


def _hermitian_form(real: np.ndarray) -> np.ndarray:
    """B = (R + R^T)/2 + i (R - R^T)/2 from real forms R (last two axes)."""
    swapped = np.swapaxes(real, -1, -2)
    out = np.empty(real.shape, dtype=complex)
    np.add(real, swapped, out=out.real)
    np.subtract(real, swapped, out=out.imag)
    out *= 0.5
    return out


def _real_probes(probes: np.ndarray) -> np.ndarray:
    """(n^2, 2p) real rows for real (n^2, p) `probes`: on vec(R), columns
    2i and 2i + 1 read the real and the imaginary part of reading i,
    ``probes[:, i]^T vec(B)``, so the real readings viewed as complex
    (:func:`_join`) are the readings."""
    probes = np.asarray(probes, dtype=float)
    swapped = probes[_transpose_index(math.isqrt(probes.shape[0]))]
    return np.stack([probes + swapped, probes - swapped], axis=-1).reshape(
        probes.shape[0], -1) / 2


def _join(readings: np.ndarray) -> np.ndarray:
    """The complex readings of real readings from :func:`_real_probes`, in place."""
    return np.ascontiguousarray(readings).view(complex)


# Chebyshev branch (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).
# On vec(B), L = -i (h1 x I - I x h1^T) + D: the first part is
# anti-Hermitian with eigenvalues E_a - E_b, and D is diagonal with
# entries in [-4 Gamma, 0], so the field of values of L lies in the
# rectangle Re z in [-4 Gamma, 0], |Im z| <= W = E_max - E_min.  L_R, the
# same map on vec(R), has the same field of values: B -> R is an
# isometry, and the complex span of the Hermitian matrices is all of
# M_n(C).  A piece of length h is carried by
#
#   exp(L_R t) v = sum_k C[k] T_k(X) v,  X = (L_R - c)/f,
#   C[k] = exp(c t) (2 - delta_k0) I_k(f t),
#
# on the ellipse with centre c = -2 Gamma and foci c +- f that passes
# through the corners of the rectangle and reaches 1/h past its real
# edges, so |exp(h z)| <= e on it (:func:`_ellipse`).  For f = i g the
# phases of I_k(i g t) = i^k J_k(g t) cancel those of T_k(X) =
# (-i)^k P_k(Y), Y = (L_R - c)/g, P_{k+1} = 2 Y P_k + P_{k-1}, so every
# term is real.  With rho the
# Bernstein parameter, ||T_k(X)|| <= (1 + sqrt 2) rho^k (Crouzeix &
# Palencia 2017), which gives the truncation and the piece length:
#
# * truncation: the series stops after the last order k with
#   |C[j, k]| rho^k >= 2^-53 at any offset j.  Past the peak these terms
#   fall faster than geometrically, so the tail dropped is a few 2^-53
#   of ||v||, the size of one rounding;
# * rounding: term k is formed to about 2^-53 |C[j, k]| rho^k ||v||, so the
#   piece's rounding error is about 2^-53 growth ||v||, with growth =
#   max_j sum_k |C[j, k]| rho^k.  A piece is kept only while growth <=
#   CHEB_GROWTH_MAX, a rounding error below about 2^-48 ||v||; the
#   default stride of the longest default arm (M = 31) has growth ~10.
#   Growth rises with the order, so this also caps the N x n^2 working
#   set of the recurrence on long pieces;
# * range: a piece spans at most CHEB_DECAY_MAX / (2 Gamma), so
#   exp(c h) >= e^-64 and the Chebyshev vectors (~rho^k) stay far inside
#   the double range.
#
# Among the piece counts that meet both, the one with the fewest products
# L_R @ v is taken.  Errors add over pieces: against scipy's dense expm
# they stay below 1e-12 relative over five default windows down to
# T2 = 1 us, and over one window down to T2 = 0.1 us
# (tests/test_lindblad.py).
CHEB_GROWTH_MAX = 32.0
CHEB_DECAY_MAX = 64.0

# Only the Chebyshev branch uses scipy, and importing it costs a fresh
# process more than a short scan: the first propagator to take the branch
# binds these names (_bind_scipy), once.
sp = _sparsetools = ive = jv = None


def _bind_scipy() -> None:
    global sp, _sparsetools, ive, jv
    if sp is None:
        import scipy.sparse as sp
        from scipy.sparse import _sparsetools
        from scipy.special import ive, jv


def _ellipse(width: float, gamma: float, h: float) -> tuple:
    """(f, rho): focal half-distance (real, or imaginary as ``i g``) and
    Bernstein parameter of the series ellipse of a piece of length `h`.

    In units of 1/h the rectangle has half-axes q = 2 Gamma h (real) and
    p = W h (imaginary).  The ellipse has real half-axis Q = q + 1 and
    passes through the corner (q, p), so its imaginary half-axis is
    P = p Q / sqrt(Q^2 - q^2).  Near a circle the foci meet and X blows
    up, so P is kept at least 9/8 Q unless the ellipse is clearly wide.
    """
    p, q = width * h, 2.0 * gamma * h
    big_q = q + 1.0
    big_p = p * big_q / math.sqrt(big_q * big_q - q * q)
    if big_p > big_q * 8.0 / 9.0:
        big_p = max(big_p, big_q * 9.0 / 8.0)
        f = 1j * math.sqrt(big_p * big_p - big_q * big_q)
    else:
        f = math.sqrt(big_q * big_q - big_p * big_p)
    return f / h, (big_p + big_q) / abs(f)


def _chebyshev_coefficients(c: float, f, offsets: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C[j, i] = exp(c t_j) (2 - delta_k0) I_k(f t_j) for the orders k = k[i],
    for imaginary f = i g without the phases i^k: J_k(g t_j) in place of I_k."""
    t = offsets[:, None]
    if isinstance(f, complex):
        coef = jv(k, f.imag * t) * np.exp(c * t)
    else:                        # ive(k, x) = I_k(x) exp(-x)
        coef = ive(k, f * t) * np.exp((c + f) * t)
    return np.where(k > 0, 2.0, 1.0) * coef


def _chebyshev_piece(width: float, gamma: float, h: float, fractions: np.ndarray) -> tuple:
    """(f, C, growth) of a piece of length `h`, C truncated as above, with
    rows at the offsets ``fractions * h``."""
    f, rho = _ellipse(width, gamma, h)
    x = abs(f) * h
    order = min(int(x + 6.0 * x ** (1.0 / 3.0)) + 40, 512)
    coef = np.empty((len(fractions), 0))
    while True:
        k = np.arange(coef.shape[1], order)
        coef = np.hstack([coef, _chebyshev_coefficients(-2.0 * gamma, f, fractions * h, k)])
        with np.errstate(divide="ignore"):
            weight = np.exp(np.log(np.abs(coef)) + np.arange(order) * math.log(rho))
        # more orders only add to the growth, so a piece past the bound
        # is given up at once
        growth = float(weight.sum(axis=1).max())
        top = weight.max(axis=0)
        above = np.flatnonzero(top >= 2.0 ** -53)
        n = above[-1] + 1 if above.size else 1
        # the terms past the peak fall monotonically (to zero once they
        # underflow): stop once the last few lie below the cut and fall
        if growth > CHEB_GROWTH_MAX or (n <= order - 4 and np.all(np.diff(top[-4:]) <= 0)):
            return f, coef[:, :n], growth
        order += order // 2


def _add_matvec(a, v: np.ndarray, out: np.ndarray) -> None:
    """out += a @ v for CSR `a` and contiguous float vectors, in one call
    of scipy's compiled kernel, without the dispatch of ``a @ v``."""
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, v, out)


def _chebyshev_terms(y, y2, sign: float, v: np.ndarray,
                     count: int) -> np.ndarray:
    """Terms 0 .. count-1 of the recurrence u_0 = v, u_1 = Y v,
    u_{k+1} = 2Y u_k + sign u_{k-1}, stacked along a new first axis;
    `y2` is 2Y."""
    out = np.empty((count, v.size))
    out[0] = v
    if count > 1:
        out[1] = 0.0
        _add_matvec(y, v, out[1])
    for k in range(2, count):
        np.multiply(out[k - 2], sign, out=out[k])
        _add_matvec(y2, out[k - 1], out[k])
    return out


def _powers(p, x: np.ndarray, count: int) -> np.ndarray:
    """x, p x, p^2 x, ... (`count` terms), stacked along a new first axis."""
    out = np.empty((count,) + x.shape)
    out[0] = x
    for j in range(1, count):
        out[j] = p @ out[j - 1]
    return out


class SectorPropagator:
    """Exact propagator of the 0+1-excitation blocks of one arm.

    Built from the real symmetric hopping matrix `h1` of the
    one-excitation sector.  Per-site dephasing at rate Gamma leaves the
    vacuum population constant and damps the vacuum-excitation coherences
    in closed form, ``exp(-2 Gamma t) exp(-i h1 t) block01``, evaluated
    from one ``eigh`` of `h1`.  The one-excitation block ``B`` follows the
    Haken-Strobl equation ``dB/dt = -i[h1, B] + D o B``, D = -4 Gamma off
    the diagonal and 0 on it.  ``B`` is Hermitian, so it is carried as
    its real form ``R = Re B + Im B`` (:func:`_real_form`), which follows
    ``dR/dt = R^T h1 - h1 R^T + D o R``: linear in vec(R) with the real
    n^2 x n^2 generator ``L_R = (I x h1^T - h1 x I) Pi + diag vec(D)``,
    Pi the transpose permutation, in `liouvillian`.  Blocks go in and
    come out Hermitian; only the propagation is real.

    Arms with n^2 <= DENSE_GRID_MAX (`dense_grid`) hold ``L_R`` dense,
    numpy alone: every exponential comes from :func:`_expm`, and
    :meth:`restart` carries a grid column by products with the grid's own
    step.  Longer arms bind scipy and hold ``L_R`` sparse (CSR), and
    vec(R) is carried piece by piece by a Chebyshev series of
    ``exp(L_R t)`` (Tal-Ezer & Kosloff 1984), whose ellipse encloses the
    field of values in closed form from the spread W of `energies` and
    from Gamma; the truncation and the piece length are derived bounds
    (see CHEB_GROWTH_MAX).  :meth:`probe_series`, the scan's refinement,
    forms products ``L_R @ v`` only, and is the same on both branches.
    """

    def __init__(self, h1: np.ndarray, noise: NoiseSpec):
        if np.any(np.imag(h1) != 0) or np.any(h1 != h1.T):
            raise ValueError("the hopping matrix h1 must be real symmetric")
        h1 = np.real(h1)
        n = h1.shape[0]
        self.gamma = gamma = noise.rate
        self.energies, self.modes = np.linalg.eigh(h1)
        self.dense_grid = n * n <= DENSE_GRID_MAX
        damping = np.full((n, n), -4.0 * gamma)
        np.fill_diagonal(damping, 0.0)
        # row-major vec: vec(h R) = (h x I) vec(R), vec(R h) = (I x h^T) vec(R),
        # vec(R^T) = vec(R)[t]
        t = _transpose_index(n)
        if self.dense_grid:
            eye = np.eye(n)
            self.liouvillian = ((np.kron(eye, h1.T) - np.kron(h1, eye))[:, t]
                                + np.diag(damping.ravel()))
        else:
            _bind_scipy()
            h = sp.csr_matrix(h1)
            eye = sp.identity(n, format="csr")
            self.liouvillian = ((sp.kron(eye, h.T) - sp.kron(h, eye)).tocsr()[:, t]
                                + sp.diags(damping.ravel())).tocsr()
            # L_R - c, c = -2 Gamma, the centre of the Chebyshev series
            self._shifted = (self.liouvillian
                             + 2.0 * gamma * sp.identity(n * n, format="csr")).tocsr()
        self._grid = None          # the last grid of on_grid, for restart
        # ||L_R||_1, the largest column sum, sets the pieces of probe_series
        self.l1_norm = float(abs(self.liouvillian).sum(axis=0).max())

    def coherences(self, block01: np.ndarray, times) -> np.ndarray:
        """`block01` evolved to each of `times`; shape (len(times), n)."""
        t = np.asarray(times, dtype=float)[:, None]
        amp = self.modes.conj().T @ block01
        return (np.exp(-(1j * self.energies + 2.0 * self.gamma) * t) * amp) @ self.modes.T

    def grid_coherences(self, block01: np.ndarray, dt: float, n_samples: int, k: int,
                        sites) -> np.ndarray:
        """Columns `sites` of :meth:`coherences` at t = m dt, m < `n_samples`.

        Sample iK + j, K = `k` the stride of :meth:`on_grid`, factors as
        exp(-(iE + 2 Gamma) iK dt) exp(-(iE + 2 Gamma) j dt), so the grid
        takes n_long + K rows of exponentials, not n_samples, and one
        (n_long, n) @ (n, K) product per site; shape (n_samples, len(sites)).
        """
        rate = -(1j * self.energies + 2.0 * self.gamma) * dt
        n_long = (n_samples - 1) // k + 1
        long = np.exp(rate * (k * np.arange(n_long))[:, None])
        short = np.exp(rate * np.arange(k)[:, None])
        weights = (self.modes.conj().T @ block01) * self.modes[sites]
        coh = (long * weights[:, None, :]) @ short.T
        return coh.reshape(len(sites), -1)[:, :n_samples].T

    def _chebyshev(self, span: float, fractions: np.ndarray) -> tuple:
        """Cut `span` into r equal pieces for the Chebyshev series.

        Returns (r, sign, Y, 2Y, C) for :func:`_chebyshev_terms`, C[j] the
        coefficients of exp(L_R t) at ``t = fractions[j] * span / r``: Y is
        X and sign -1 for real f, Y = (L_R - c)/g and sign +1 for
        f = i g.  r starts where a piece decays by at most
        exp(-CHEB_DECAY_MAX) and doubles while the rounding growth exceeds
        CHEB_GROWTH_MAX; of the counts that pass, the one with the fewest
        products, r times the order, is taken.
        """
        width = float(self.energies.max() - self.energies.min())
        r = max(1, math.ceil(2.0 * self.gamma * span / CHEB_DECAY_MAX))
        best = None
        while True:
            f, coef, growth = _chebyshev_piece(width, self.gamma, span / r, fractions)
            if growth <= CHEB_GROWTH_MAX:
                if best is not None and r * coef.shape[1] >= best[0] * best[2].shape[1]:
                    break
                best = (r, f, coef)
            r *= 2
        r, f, coef = best
        sign = 1.0 if isinstance(f, complex) else -1.0
        y = self._shifted * (1.0 / abs(f))
        return r, sign, y, y * 2.0, coef

    def _carry(self, vec: np.ndarray, t: float) -> np.ndarray:
        """vec(R) evolved by `t` seconds."""
        if t == 0:
            return vec.copy()
        if self.dense_grid:
            return _expm(self.liouvillian, t, self.l1_norm) @ vec
        r, sign, y, y2, coef = self._chebyshev(t, np.ones(1))
        for _ in range(r):
            vec = coef[0] @ _chebyshev_terms(y, y2, sign, vec, coef.shape[1])
        return vec

    def restart(self, sample: int, t: float) -> np.ndarray:
        """The one-excitation block at time `t` >= times[`sample`] of the
        last grid of :meth:`on_grid`, from its long stride iK <= `sample`:
        on the dense branch by sample - iK products with the grid's step
        P_1 and :func:`_expm` only for an off-grid rest t - times[sample],
        on the Chebyshev branch by one carry over t - times[iK]."""
        times, k, cols, step = self._grid
        origin = sample if step is not None else sample - sample % k
        vec = cols[sample // k]
        for _ in range(origin % k):
            vec = step @ vec
        return _hermitian_form(self._carry(vec, t - times[origin]).reshape(self.modes.shape))

    def probe_series(self, block11: np.ndarray, span: float,
                     probes: np.ndarray) -> np.ndarray:
        """Taylor table of the readings ``probes^T vec(B(t))`` for t in
        [0, span], from B(0) = `block11`; `probes` is a real (n^2, p) array.

        [0, span] is cut into the fewest pieces of width s with
        ``l1_norm * s <= 1``.  Entry [j, k] is ``probes^T vec(B_k)``, B_k
        the Hermitian form of ``(L_R s)^k / k! vec(R(j s))``, so the
        readings at ``(j + x) s``, 0 <= x <= 1, are ``sum_k table[j, k] x^k``;
        each piece starts from the sum of the one before it at x = 1.  Only
        products ``L_R @ v`` form the table, so the dense and the sparse
        branch share this.  Shape (pieces, SERIES_DEGREE + 1, p), complex.
        """
        pieces = max(1, math.ceil(self.l1_norm * span))
        step = self.liouvillian * (span / pieces)
        rows = _real_probes(probes)
        vec = _real_form(block11).ravel()
        table = np.empty((pieces, SERIES_DEGREE + 1, rows.shape[1]))
        for j in range(pieces):
            terms = _powers(step, vec, SERIES_DEGREE + 1) * _INV_FACTORIALS[:, None]
            table[j] = terms @ rows
            vec = terms.sum(axis=0)
        return _join(table)

    def on_grid(self, block11: np.ndarray, window: float, n_samples: int,
                probes: np.ndarray) -> tuple:
        """The readings ``probes^T vec(B)`` of `block11` propagated to
        `n_samples` equally spaced times on [0, window]; `probes` is a real
        (n^2, p) array of rows r.

        With grid step dt and stride K = isqrt(n_samples - 1) + 1, sample
        iK + j is exp(L_R j dt) exp(L_R iK dt) vec(R0).  On the dense
        branch (:func:`_expm`) vec(R0) is carried over the long strides
        iK dt by repeated products with P_K = exp(L_R K dt), and the 2p
        real rows of :func:`_real_probes` over the short strides j dt by
        products with P_1^T = exp(L_R dt)^T, exp(L_R^T j dt) r, so the
        readings come out of one product.  On the sparse branch vec(R0) is
        carried over pieces of K dt / r by the Chebyshev series, whose one
        table of coefficients gives every sample in a piece.  The grid is
        kept for :meth:`restart`.

        Returns (times, readings, K), the readings of shape (n_samples, p).
        """
        n = block11.shape[0]
        times = np.linspace(0.0, window, n_samples)
        dt = times[1]
        k = math.isqrt(n_samples - 1) + 1
        n_long = (n_samples - 1) // k + 1
        vec = _real_form(block11).ravel()
        rows = _real_probes(probes)
        step = None
        if not self.dense_grid:
            values, cols = self._chebyshev_grid(vec, k, dt, n_long, n_samples, rows)
        else:
            cols = _powers(_expm(self.liouvillian, k * dt, self.l1_norm), vec, n_long)
            width = rows.shape[1]
            step = _expm(self.liouvillian, dt, self.l1_norm)
            carried = _powers(step.T, rows, k)
            values = ((cols @ carried.transpose(1, 0, 2).reshape(n * n, k * width))
                      .reshape(-1, width)[:n_samples])
        self._grid = times, k, cols, step
        return times, _join(values), k

    def _chebyshev_grid(self, vec: np.ndarray, k: int, dt: float, n_long: int,
                        n_samples: int, rows: np.ndarray) -> tuple:
        """Sparse branch of :meth:`on_grid` on vec(R): (values, columns),
        real, with the readings of the real `rows`.

        Each stride K dt is cut into r pieces of K dt / r.  Sample j of a
        stride lies in piece (j r) // K at offset ((j r) mod K) dt / r, so
        one table with rows at the offsets u dt / r, u = 0..K, serves
        every piece; row K carries vec(R) to the start of the next piece.
        """
        r, sign, y, y2, coef = self._chebyshev(k * dt, np.arange(k + 1) / k)
        piece, row = np.divmod(np.arange(k) * r, k)
        in_piece = [np.flatnonzero(piece == i) for i in range(r)]
        values = np.empty((n_samples, rows.shape[1]))
        cols = np.empty((n_long, vec.size))
        last = n_samples - 1
        for i in range(n_long):
            cols[i] = vec
            base = i * k
            pieces = r if i < n_long - 1 else piece[last - base] + 1
            for q in range(pieces):
                terms = _chebyshev_terms(y, y2, sign, vec, coef.shape[1])
                js = in_piece[q]
                js = js[base + js <= last]
                if js.size:
                    values[base + js] = coef[row[js]] @ (terms @ rows)
                vec = coef[k] @ terms
        return values, cols


def default_window_s(spec: ChainSpec) -> float:
    """Transfer window in seconds, scaled with the arm length."""
    return (WINDOW_KT / spec.kappa_angular) * ((spec.m_chain + 2) / 5.0)


def evolve_chain(
    spec: ChainSpec,
    noise: NoiseSpec,
    t_end: float | None = None,
    n_samples: int = N_SAMPLES_DEFAULT,
    register_state: str = "plus",
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
) -> Trajectory:
    """Build the arm for `spec` and evolve the transfer initial state on
    the full Hilbert space with :func:`evolve`, the oracle path.

    `rtol`/`atol` are the Runge-Kutta tolerances.
    """
    from .chain import build_chain_hamiltonian

    t_end = default_window_s(spec) if t_end is None else t_end
    h, _ = build_chain_hamiltonian(spec)
    rho0 = initial_transfer_state(spec, register_state).to_full()
    return evolve(rho0, h, noise, t_end, n_samples, rtol, atol)
