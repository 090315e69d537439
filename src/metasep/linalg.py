"""Dense symmetric linear algebra plus the spiked-identity structure.

Matrices are plain float64 numpy arrays stored fully symmetric; the
dimensions of interest stay below a few hundred. sym_eigen, a wrapper
around LAPACK's symmetric eigensolver, is the one factorization the
package uses: every closed form and every production solve is a
spectral function of its result.

SpikedIdentity represents (alpha - kappa) w w^T + kappa I for a unit
direction w: every first layer produced by the meta-dynamics has this
two-eigenvalue form, and keeping it structured makes meta-trajectories
O(d) instead of O(d^3) per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NotPsdError(ValueError):
    """Matrix that must be positive definite is not."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order; eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def apply(self, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
        """Apply the spectral function f(eigenvalues) as a matrix to x."""
        v = self.eigenvectors
        return v @ (f(self.eigenvalues) * (v.T @ x))


def sym_eigen(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy eigh),
    eigenvalues in descending order."""
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    s, v = np.linalg.eigh(symmetrize(a))
    return EigenDecomposition(s[::-1], v[:, ::-1])


@dataclass(frozen=True)
class SpikedIdentity:
    """(spike - bulk) w w^T + bulk I for a unit direction w."""

    direction: np.ndarray
    spike: float
    bulk: float

    def __post_init__(self):
        nrm = np.linalg.norm(self.direction)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit norm, got {nrm}")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def to_dense(self) -> np.ndarray:
        w = self.direction
        return (self.spike - self.bulk) * np.outer(w, w) + self.bulk * np.eye(self.dim)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = self.direction
        return self.bulk * v + (self.spike - self.bulk) * (w @ v) * w
