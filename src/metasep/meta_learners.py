"""Meta-learning algorithms over the two-layer model class.

Reptile: starting from (kappa I, 0), repeatedly draw a task sign and
interpolate the current parameters toward that task's population-flow
limit with rate tau. Because every iterate stays in spiked form, the
whole trajectory lives in the reduced (a_i, b_i) coordinates:

    a_{i+1} = (1 - tau) a_i + tau * a_bar(c_i)
    b_{i+1} = (1 - tau) b_i + tau * s_{i+1} * b_bar(c_i)

with c_i = a_i^2 - b_i^2 and (a_bar, b_bar) the within-task flow limit
of twolayer.flow_limit. The one loop of the recursion, _reptile_steps,
writes that closed form out on plain floats rather than calling it, since
the call is most of a meta-step's cost;
tests/test_meta_learners.py::test_reptile_steps_equal_flow_limit_exactly
pins the copy to flow_limit bit for bit. reptile_spike runs the loop once
and keeps only a_T; run_reptile steps it one sign at a time and stores
the trajectory as two float64 arrays. The meta-output is the first layer
only, which a_T determines.

RepLearn: joint gradient flow on the summed multi-task objective with
one shared first layer and per-task second layers. Its limit has the
closed form a_bar = sqrt((a0^2 + sqrt(4 r^2 T + a0^4)) / 2), which is
how large effective spikes are produced here; the flow integrator
lives with the numeric oracles.

Also included: the degenerate multi-task minimizer (identity first
layer, per-task second layers equal to the signed targets), which
zeroes the multi-task objective while learning nothing transferable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SpikedIdentity, as_dense
from .rng import SeedSpec, rademacher_signs
from .tasks import MetaInstance


@dataclass(frozen=True)
class ReptileSpec:
    """Interpolation rate, identity-init scale, and task count."""

    tau: float
    kappa: float
    t_tasks: int

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.t_tasks < 0:
            raise ValueError(f"t_tasks must be nonnegative, got {self.t_tasks}")


@dataclass(frozen=True)
class ScalarTrajectory:
    """Reduced meta-trajectory: T+1 values of a and of b, and the T signs behind them."""

    a_values: np.ndarray
    b_values: np.ndarray
    signs: list

    def __post_init__(self):
        if len(self.a_values) != len(self.signs) + 1 or len(self.b_values) != len(self.a_values):
            raise ValueError(f"a, b lengths {len(self.a_values)}, {len(self.b_values)} "
                             f"for {len(self.signs)} signs")


def _reptile_steps(a: float, b: float, signs, tau: float, r: float) -> tuple[float, float]:
    """Run the Reptile meta-step from (a, b) over signs; return the final (a, b).

    The flow limit of twolayer.flow_limit is written out here, in its
    arithmetic order (the seed contract), with 1 - tau, 4 r^2 and sqrt
    hoisted out of the loop. Raises ValueError if 4 r^2 overflows.
    """
    keep, four_r2, sqrt = 1.0 - tau, 4.0 * r * r, math.sqrt
    if four_r2 == math.inf:
        raise ValueError(f"r is too large for the meta-step: 4 r^2 overflows, got {r!r}")
    for s in signs:
        c = a * a - b * b
        root = sqrt(four_r2 + c * c)
        a, b = (keep * a + tau * sqrt((c + root) / 2.0),
                keep * b + tau * (s * sqrt((root - c) / 2.0)))
    return a, b


def _signs(spec: ReptileSpec, seed: SeedSpec) -> list:
    """The T task signs of a run, as Python ints (cheaper to loop over)."""
    return rademacher_signs(seed, spec.t_tasks).tolist() if spec.t_tasks else []


def reptile_spike(spec: ReptileSpec, inst: MetaInstance, seed: SeedSpec) -> float:
    """Final spike a_T of the scalar Reptile recursion from (kappa, 0), on
    the signs run_reptile draws; no trajectory is kept."""
    return _reptile_steps(spec.kappa, 0.0, _signs(spec, seed), spec.tau, inst.r)[0]


def run_reptile(spec: ReptileSpec, inst: MetaInstance, seed: SeedSpec) -> ScalarTrajectory:
    """Run the scalar Reptile recursion from (kappa, 0) over T drawn signs
    and return the trajectory. The learned first layer is
    (a_T - kappa) w_hat w_hat^T + kappa I for its last a; the final
    second layer is discarded. A step that overflows is stored as inf or
    NaN, not raised.
    """
    r, tau = inst.r, spec.tau
    signs = _signs(spec, seed)
    a, b = spec.kappa, 0.0
    a_list, b_list = [a], [b]
    for s in signs:
        a, b = _reptile_steps(a, b, (s,), tau, r)
        a_list.append(a)
        b_list.append(b)
    return ScalarTrajectory(np.array(a_list, dtype=np.float64),
                            np.array(b_list, dtype=np.float64), signs)


def reptile_tau_schedule(t_tasks: int, delta: float) -> float:
    """Rate schedule tau = T^{-1/3} log(2T/delta)^{-2/3}, clamped below 1."""
    if t_tasks < 2:
        raise ValueError(f"need t_tasks >= 2, got {t_tasks}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    tau = t_tasks ** (-1.0 / 3.0) * math.log(2.0 * t_tasks / delta) ** (-2.0 / 3.0)
    return min(tau, 1.0 - 1e-9)


def reptile_growth_bound(t_tasks: int, tau: float, delta: float, r: float) -> float:
    """High-probability lower bound on a_T under the tau schedule:
    min{sqrt(r) / (2 sqrt(tau log(T/delta))), sqrt(r) (tau T)^{1/4} / 2}."""
    first = math.sqrt(r) / (2.0 * math.sqrt(tau * math.log(t_tasks / delta)))
    second = math.sqrt(r) * (tau * t_tasks) ** 0.25 / 2.0
    return min(first, second)


def reptile_fluctuation_bound(t_tasks: int, tau: float, delta: float, r: float) -> float:
    """High-probability envelope for |b_i|: sqrt(2 r tau log(2T/delta))."""
    return math.sqrt(2.0 * r * tau * math.log(2.0 * t_tasks / delta))


def replearn_alpha(t_tasks: int, kappa: float, r: float) -> float:
    """Closed-form spike of the multi-task flow limit:
    sqrt((kappa^2 + sqrt(4 r^2 T + kappa^4)) / 2)."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if t_tasks < 1:
        raise ValueError(f"need t_tasks >= 1, got {t_tasks}")
    k2 = kappa * kappa
    return math.sqrt((k2 + math.sqrt(4.0 * r * r * t_tasks + k2 * k2)) / 2.0)


def replearn_tasks_for_alpha(alpha: float, kappa: float, r: float) -> int:
    """Smallest task count whose closed-form spike reaches alpha.

    Inverts replearn_alpha: T = a^2 (a^2 - kappa^2) / r^2.
    """
    if alpha <= kappa:
        return 1
    a2 = alpha * alpha
    return max(1, math.ceil(a2 * (a2 - kappa * kappa) / (r * r)))


def run_replearn(t_tasks: int, kappa: float, inst: MetaInstance) -> SpikedIdentity:
    """Closed-form limit of the joint multi-task flow from (kappa I, 0).

    The sign pattern only rotates the per-task second layers; the
    shared first layer depends on it solely through the task count.
    """
    a_bar = replearn_alpha(t_tasks, kappa, inst.r)
    w_hat = inst.w_star / inst.r
    return SpikedIdentity(w_hat, a_bar, kappa)


def bad_minimizer(inst: MetaInstance, signs) -> tuple[np.ndarray, list]:
    """Degenerate minimizer of the multi-task objective: A = I,
    w_i = s_i * w_star. Zeroes the objective yet leaves the first
    layer uninformative about the shared direction."""
    return np.eye(inst.d), [s * inst.w_star for s in signs]


def replearn_loss(a, w_list, inst: MetaInstance, signs) -> float:
    """Multi-task objective up to its additive noise floor:
    (1/T) sum_i ||A^T w_i - s_i w_star||^2."""
    if len(w_list) != len(signs):
        raise ValueError(f"{len(w_list)} second layers for {len(signs)} signs")
    a_dense = as_dense(a)
    total = 0.0
    for w, s in zip(w_list, signs):
        diff = a_dense.T @ w - s * inst.w_star
        total += float(diff @ diff)
    return total / len(signs)
