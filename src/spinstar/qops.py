"""Hilbert-space primitives for registers of spin-1/2 sites.

Conventions used throughout the package:

* ``|0>`` is the first basis vector ``(1, 0)``, carrying no excitation;
  ``|1>`` is one excitation.  ``sigma_z |0> = +|0>``.
* Site 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational basis index.
* Operators and states are plain complex numpy arrays.  Density matrices
  are validated (Hermitian, unit trace, positive semidefinite) at
  operation boundaries by :func:`assert_density`.
* ``hbar = 1``; energies are angular frequencies in rad/s.
"""

from __future__ import annotations

import numpy as np

# Default validation tolerances.  Overridable per call.
DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-8
DENSITY_EIG_TOL = 1e-8      # smallest eigenvalue >= -DENSITY_EIG_TOL

_PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# Excitation ladder in the package basis: RAISE maps |0> to |1| (adds an
# excitation), LOWER removes one.  With the standard matrices above these
# are (x - iy)/2 and (x + iy)/2 respectively.
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def pauli(kind: str) -> np.ndarray:
    """Return a 2x2 Pauli matrix.

    ``kind`` is one of ``x, y, z, identity`` (case insensitive).  The
    excitation ladder is :data:`RAISE`/:data:`LOWER`.
    """
    key = kind.lower()
    if key in ("i", "id", "1"):
        key = "identity"
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli kind {kind!r}")
    return _PAULI[key].copy()


def n_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension; rejects non powers of 2."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator on `site` of an `n_sites` register.

    Identity acts on every other site.  Site 0 is the leftmost factor.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("embed expects a 2x2 single-site operator")
    if not 0 <= site < n_sites:
        raise IndexError(f"site {site} out of range for {n_sites} sites")
    left = np.eye(2 ** site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def assert_density(
    rho: np.ndarray,
    herm_tol: float = DENSITY_HERMITIAN_TOL,
    trace_tol: float = DENSITY_TRACE_TOL,
    eig_tol: float = DENSITY_EIG_TOL,
) -> None:
    """Validate the density-matrix invariants.

    Hermitian to `herm_tol`, unit trace to `trace_tol`, smallest
    eigenvalue above ``-eig_tol``.  A stack of shape ``(..., d, d)`` is
    validated matrix by matrix.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    n_qubits(rho.shape[-1])
    adj = np.swapaxes(rho, -1, -2).conj()
    if np.abs(rho - adj).max() > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    tr = np.ravel(np.trace(rho, axis1=-2, axis2=-1))
    bad = np.abs(tr - 1.0) > trace_tol
    if bad.any():
        raise ValueError(f"density matrix trace {tr[bad][0]} deviates from 1")
    w = np.linalg.eigvalsh((rho + adj) / 2)
    if w.min() < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")


def partial_trace(rho: np.ndarray, keep, n_sites: int | None = None) -> np.ndarray:
    """Trace out all sites not in `keep`; kept sites keep their relative order.

    Parameters
    ----------
    rho : array
        Density matrix on ``2**n`` dimensions.
    keep : iterable of int
        Nonempty set of site indices to retain (ascending site order is
        preserved in the result's tensor factors).
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0]) if n_sites is None else n_sites
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep sites {keep} out of range for {n} sites")
    traced = [q for q in range(n) if q not in keep]
    if not traced:
        return rho.copy()
    tens = rho.reshape((2,) * (2 * n))
    # contract row/column indices of each traced site pairwise
    row = list(range(n))
    col = list(range(n, 2 * n))
    for q in traced:
        col[q] = row[q]
    out_axes = [row[q] for q in keep] + [col[q] for q in keep]
    reduced = np.einsum(tens, row + col, out_axes)
    d = 2 ** len(keep)
    return reduced.reshape(d, d)
