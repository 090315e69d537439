"""Dense symmetric linear algebra plus the spiked-identity structure.

Matrices are plain float64 numpy arrays stored fully symmetric; the
dimensions of interest stay below a few hundred. sym_eigen, a wrapper
around LAPACK's symmetric eigensolver, is the one factorization the
closed forms use: every closed form and every production solve is a
spectral function of its result. (The risk estimator's sampled spectra
come from rng.wishart_spectra.)

SpikedIdentity represents (alpha - kappa) w w^T + kappa I for a unit
direction w, the two-eigenvalue form of every first layer that the
meta-dynamics produce. It only records that form: Reptile runs on the
scalars (a, b), and the risk estimator and gd2_reg use as_dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalError(ValueError):
    """A computation failed numerically, not because of its configuration."""


class NotPsdError(NumericalError):
    """Matrix that must be positive definite is not."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _checked_square(m: np.ndarray) -> np.ndarray:
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        # every caller passes a computed matrix, so this is a numerical failure
        raise NumericalError("matrix has non-finite entries")
    return symmetrize(a)


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (s, v) of a symmetric matrix by LAPACK (numpy
    eigh): the eigenvalues s in descending order and the eigenvectors as
    the columns of v, so that m = v diag(s) v^T."""
    s, v = np.linalg.eigh(_checked_square(m))
    return s[::-1], v[:, ::-1]


@dataclass(frozen=True)
class SpikedIdentity:
    """(spike - bulk) w w^T + bulk I for a unit direction w."""

    direction: np.ndarray
    spike: float
    bulk: float

    def __post_init__(self):
        nrm = np.linalg.norm(self.direction)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"direction must be unit norm, got {nrm}")
        if not (np.isfinite(self.spike) and np.isfinite(self.bulk)):
            # config values arrive checked finite, so a non-finite one was computed
            raise NumericalError(f"spike and bulk must be finite, got {self.spike} and {self.bulk}")

    def to_dense(self) -> np.ndarray:
        w = self.direction
        return (self.spike - self.bulk) * np.outer(w, w) + self.bulk * np.eye(w.shape[0])


def as_dense(a) -> np.ndarray:
    """A dense float64 array of a matrix or a SpikedIdentity."""
    return a.to_dense() if isinstance(a, SpikedIdentity) else np.asarray(a, dtype=np.float64)
