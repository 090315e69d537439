"""Task distributions and sampled datasets.

A problem instance is a direction w_star with ||w_star|| = r (r e_1
from a config) and a noise level sigma. Tasks are signed copies of the
direction (sign +1 or -1, each with probability 1/2); a task's
regression target is sign * w_star.
Within a task, inputs are standard normal and labels are
y = x^T (sign * w_star) + noise with noise ~ N(0, sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize
from .rng import SeedSpec, gaussian_matrix, gaussian_vector, rademacher_signs


@dataclass(frozen=True)
class MetaInstance:
    """Distribution over tasks: signed copies of w_star plus label noise."""

    w_star: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.w_star.ndim != 1:
            raise ValueError(f"w_star must be a vector, got shape {self.w_star.shape}")
        # the one domain check of r and sigma: every square taken of them is
        # finite, and 4 r^2 > 0 keeps the flow limit's divisor, at least
        # sqrt(r), nonzero
        r = self.r
        if not 0.0 < 4.0 * r * r < math.inf:
            raise ValueError(f"r must be positive with 4 r^2 finite and nonzero, got {r!r}")
        if not (self.sigma >= 0.0 and self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma must be nonnegative with sigma^2 finite, got {self.sigma!r}")

    @property
    def d(self) -> int:
        return self.w_star.shape[0]

    @property
    def r(self) -> float:
        """Norm of the shared direction; hypot does not overflow above 1e154."""
        return math.hypot(*self.w_star)

    @staticmethod
    def from_config(d: int, r: float, sigma: float) -> "MetaInstance":
        """The instance with w_star = r e_1 (r times the first basis vector)."""
        if d < 1:
            raise ValueError(f"need d >= 1, got {d}")
        if r < 0.0:  # r e_1 has norm |r|, so __post_init__ cannot see the sign
            raise ValueError(f"r must be positive with 4 r^2 finite and nonzero, got {r!r}")
        w = np.zeros(d)
        w[0] = r
        return MetaInstance(w, float(sigma))


@dataclass(frozen=True)
class Task:
    """One task from an instance: a sign choice."""

    instance: MetaInstance
    sign: int

    @property
    def target(self) -> np.ndarray:
        """The task's regression vector, sign * w_star."""
        return self.sign * self.instance.w_star


@dataclass(frozen=True)
class Dataset:
    """n labelled examples from one task."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def emp_covariance(ds: Dataset) -> np.ndarray:
    """Empirical second-moment matrix X^T X / n (symmetrized)."""
    return symmetrize(ds.x.T @ ds.x / ds.n)


def sample_task(instance: MetaInstance, seed: SeedSpec) -> Task:
    sign = int(rademacher_signs(seed, 1)[0])
    return Task(instance, sign)


def sample_dataset(task: Task, n: int, seed: SeedSpec) -> Dataset:
    """Draw n examples: x from child stream 0, noise from child stream 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    x = gaussian_matrix(seed.child(0), n, task.instance.d)
    noise = gaussian_vector(seed.child(1), n, std=task.instance.sigma)
    return Dataset(x, x @ task.target + noise)
