"""Dense complex linear algebra kernel for small multi-qubit operators.

Everything here operates on plain ``numpy`` arrays of ``complex128``.  Most
matrices are at most 64x64 (registers of up to six qubits), but the transient
carrier+memory state of an N-pair protocol run is 2^(2N)-dimensional, 1024x1024
at N = 5.  No attempt is made at sparsity; the Hermiticity check works in
tiles so that it stays cache-friendly at that size.

``hermiticity_defect``, ``eigh`` and ``mat_fn`` also take a (k, d, d) stack
and treat each of its k matrices as the 2-D call would, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Max absolute deviation of H - H^dag tolerated before an input is rejected
# as non-Hermitian.  Accounts for round-off accumulated by repeated
# kron/matmul chains.
HERMITICITY_TOL = 1e-10

# Side of the square tiles compared by ``hermiticity_defect``.
HERMITICITY_TILE = 128

# Eigenvalues below this magnitude are treated as exactly zero inside
# entropic matrix functions (0*log 0 := 0 continuity).
EIGENVALUE_FLOOR = 1e-12


class LinalgError(ValueError):
    """Raised on dimension mismatches or invalid (non-finite, non-Hermitian) input."""


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, or a 3-D (k, m, n) stack."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 + stacked:
        raise LinalgError(
            f"expected a {'(k, m, n) stack' if stacked else '2-D matrix'}, got shape {m.shape}"
        )
    # A finite sum proves every entry finite without an entrywise pass; only
    # a non-finite (or overflowing) sum needs the entrywise check.
    if not np.isfinite(m.sum()) and not np.isfinite(m).all():
        raise LinalgError("matrix has NaN/Inf entries")
    return m


def _as_square(h) -> np.ndarray:
    """A finite square matrix, or a (k, d, d) stack of them."""
    h = as_matrix(h, stacked=np.ndim(h) == 3)
    if h.shape[-1] != h.shape[-2]:
        raise LinalgError(f"expected a square matrix, got shape {h.shape}")
    return h


def hermiticity_defect(h) -> float:
    """max |h - h^dag| over all entries (of every matrix, for a stack).

    |h_ij - conj(h_ji)| is symmetric under i <-> j, so only the tiles on and
    above the diagonal are compared; the maximum is the same.
    """
    h = _as_square(h)
    d = h.shape[-1]
    b = HERMITICITY_TILE
    defect = 0.0
    for i in range(0, d, b):
        for j in range(i, d, b):
            tile = h[..., i : i + b, j : j + b] - h[..., j : j + b, i : i + b].conj().swapaxes(-1, -2)
            defect = max(defect, float(np.abs(tile).max()))
    return defect


def require_hermitian(h) -> np.ndarray:
    h = _as_square(h)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise LinalgError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.0e})")
    return h


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, unitary columns.

    For a (k, d, d) stack, the arrays gain the leading k axis; the two
    residuals take one matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _with_spectrum(self.eigenvectors, self.eigenvalues)

    def reconstruction_residual(self, h) -> float:
        h = as_matrix(h)
        scale = max(1.0, float(np.linalg.norm(h)))
        return float(np.linalg.norm(self.reconstruct() - h)) / scale

    def unitarity_residual(self) -> float:
        v = self.eigenvectors
        return float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0])))


def eigh(h) -> EigenDecomposition:
    """Hermitian eigendecomposition (validated input, ascending eigenvalues)."""
    h = require_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def _with_spectrum(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """v diag(vals) v^dag, for one matrix or a stack."""
    return (v * vals[..., None, :]) @ v.conj().swapaxes(-1, -2)


def mat_fn(h, f: Callable[[float], float]) -> np.ndarray:
    """Apply a real function to the spectrum of a Hermitian matrix, or of
    each matrix of a (k, d, d) stack.

    Eigenvalues with magnitude below ``EIGENVALUE_FLOOR`` are mapped to 0
    instead of being fed to ``f``, which keeps entropic functions like
    ``x*log2(x)`` well defined at 0.
    """
    dec = eigh(h)
    vals = dec.eigenvalues
    mapped = np.array(
        [0.0 if abs(x) < EIGENVALUE_FLOOR else f(x) for x in vals.ravel()],
        dtype=float,
    ).reshape(vals.shape)
    return _with_spectrum(dec.eigenvectors, mapped)
