"""Two-layer linear network trained within a task.

The model is f(x) = w^T A x with a d x d first layer A and a second
layer w. On a task with target v = s * w_star the population loss is
||A^T w - v||^2 + sigma^2.

Two within-task procedures:

* gd_pop: gradient flow on the population loss. For spiked-identity
  initializations the flow reduces to two scalars (a along the shared
  direction, b the aligned second-layer coordinate) with conserved
  gap c = a^2 - b^2, and the limit has the closed form
  a_bar = sqrt((c + sqrt(4 r^2 + c^2)) / 2), b_bar = s * sqrt((-c +
  sqrt(4 r^2 + c^2)) / 2). gd_pop_flow integrates the batched matrix
  flow of tasks sharing a first layer with rk4, the package's one
  fixed-step RK4 integrator, as the numeric cross-check. Its step is
  capped at 5e-3: the limit does not depend on the step, and at that
  cap the drift of the conserved gap stays 67x inside the 1e-8 that
  the acceptance check allows (see gd_pop_flow).
* gd2_reg: ridge regression on the second layer only, first layer
  frozen.

The flow right-hand sides drop the factor 2 from the squared-loss
gradient (a time reparametrization that leaves limits unchanged); the
numeric integrator and the closed forms use the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, as_dense, sym_eigen
from .tasks import Dataset, Task, emp_covariance


@dataclass(frozen=True)
class ScalarPair:
    """Reduced coordinates (a, b) of a spiked-form (A, w) pair."""

    a: float
    b: float

    @property
    def gap(self) -> float:
        """The conserved quantity a^2 - b^2 of the population flow."""
        return self.a * self.a - self.b * self.b


@dataclass(frozen=True)
class TwoLayerParams:
    """First layer (dense or spiked) and second-layer vector."""

    first: object
    second: np.ndarray

    def first_dense(self) -> np.ndarray:
        return as_dense(self.first)


def flow_limit(c: float, r: float, s: int) -> tuple[float, float]:
    """Closed-form flow limit (a_bar, b_bar) on plain floats for gap c.

    The pair satisfies a_bar * b_bar = s * r and a_bar^2 - b_bar^2 = c.
    s is not checked here; gd_pop_fixed_point is the checked entry.
    The Reptile meta-loop, meta_learners._reptile_steps, carries a
    written-out copy of this formula;
    tests/test_meta_learners.py::test_reptile_steps_equal_flow_limit_exactly
    pins the two together bit for bit.
    """
    root = math.sqrt(4.0 * r * r + c * c)
    return math.sqrt((c + root) / 2.0), s * math.sqrt((root - c) / 2.0)


def gd_pop_fixed_point(state: ScalarPair, kappa: float, r: float, s: int) -> ScalarPair:
    """Limit of the population flow from reduced state (a, b).

    kappa is the ambient bulk of the spiked first layer; it rides along
    unchanged and does not enter the formula. The returned pair
    satisfies a_bar * b_bar = s * r and a_bar^2 - b_bar^2 = a^2 - b^2.
    The closed form is the flow limit when a > b >= 0; for other states
    it is still evaluated, but outside that region it is only the
    formula, not a convergence claim.
    """
    del kappa
    if s not in (1, -1):
        raise ValueError(f"s must be +1 or -1, got {s}")
    return ScalarPair(*flow_limit(state.gap, r, s))


def rk4(rhs, y, t_max: float, step, tol: float, view):
    """Classical RK4, without error control, on a flat state y (..., n).

    rhs(view(y), view(out)) writes the derivative at y into out, an
    array of y's shape, and returns nothing. Each step takes one size
    h = step(view(y)), shared across the batch. Integration stops with
    converged True as soon as the largest row norm of the derivative is
    below tol; if t_max is reached first, converged is that same test at
    the final state. Returns (y, converged). Raises NumericalError, with
    the time reached, when that norm is not finite or a step size is not
    finite and positive: an overflowed or NaN state never returns, and a
    zero step never stalls the loop.

    The state, the stage input and k1..k4 are buffers allocated once per
    call, and every step runs in place on them with numpy's out=, in
    the arithmetic order of the textbook form: stage inputs
    y + (0.5 h) k, the update y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
    view is called once on each buffer, before the first step (lambda
    b: b hands out the flat buffers), and rhs and step see only what it
    returned, never the caller's y, which is copied and not written.
    Overflow and invalid-operation warnings are silenced while the loop
    runs, since the norm and step checks turn every non-finite state
    into that one error.
    """
    y = np.array(y, dtype=np.float64)
    stage = np.empty_like(y)
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    y_v, stage_v, k1_v, k2_v, k3_v, k4_v = map(view, (y, stage, k1, k2, k3, k4))
    norms = np.empty(y.shape[:-1])
    # a step is some 30 small numpy calls, so their dispatch is its cost:
    # local names, positional out, and add.reduce rather than np.sum's wrapper
    add, multiply, row_sum = np.add, np.multiply, np.add.reduce
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rhs(y_v, k1_v)
            peak = float(row_sum(multiply(k1, k1, stage), axis=-1, out=norms).max())
            if peak < tol * tol:
                return y, True
            if not peak < math.inf:
                raise NumericalError(f"rk4: squared derivative norm {peak} at t={t!r}")
            if t >= t_max:
                return y, False
            h = step(y_v)
            if not 0.0 < h < math.inf:
                raise NumericalError(f"rk4: step size {h} at t={t!r}")
            add(y, multiply(k1, 0.5 * h, stage), stage)
            rhs(stage_v, k2_v)
            add(y, multiply(k2, 0.5 * h, stage), stage)
            rhs(stage_v, k3_v)
            add(y, multiply(k3, h, stage), stage)
            rhs(stage_v, k4_v)
            add(k1, multiply(k2, 2.0, k2), k2)
            add(k2, multiply(k3, 2.0, k3), k2)
            add(k2, k4, k2)
            add(y, multiply(k2, h / 6.0, k2), y)
            t += h


def gd_pop_flow(a, w, v, t_max: float, tol: float):
    """Integrate dA/dt = W G^T, dW/dt = A G, G = V - A^T W, by rk4.

    a is (..., d, d), w (..., d, T) and v, the signed targets s_i w_star
    as columns, (..., d, T); T = 1 for one task. Every step takes
    h = min(5e-3, 0.05 / (1 + ||A||_F^2)) for the batch's largest A, a
    function of the state alone, so a flow stopped at t and restarted
    takes the same steps. Returns (a, w, converged), converged as rk4
    decides it for the whole batch; a and w are views of one new array,
    and a, w and v are never written. A state that overflows or turns
    NaN raises NumericalError (see rk4).

    The state is the row [vec A, vec W] per batch entry. rk4 builds the
    (vec A, A, A^T, W) views of each of its buffers once, by split, and
    A^T W, G and the step rule's squares and norms live in arrays
    allocated once per flow, so a step allocates, reshapes and
    concatenates nothing.

    The cap is set by the one error the step size can cause. A state
    with rhs = 0 is a fixed point of the RK4 map, so the limit the flow
    reaches does not depend on h. The step error moves only the
    conserved gap c = a^2 - b^2, which picks the point on a * b = s * r
    where the flow lands; the check that bounds it is the 1e-8 gap drift
    of tests/test_acceptance.py criterion 2, not the verify residuals.
    From that criterion's starts the drift is 1.5e-10 at a 5e-3 cap (a
    67x margin), 2.4e-9 at 1e-2 (4x) and 2.1e-8 at 2e-2, which fails.
    The 0.05 / (1 + ||A||_F^2) term keeps h inside RK4's stability
    region once the first layer grows, where the rhs Jacobian scales
    with ||A||^2.
    """
    v = np.asarray(v, dtype=np.float64)
    *batch, d, k = v.shape
    n = d * d

    def split(y):
        a = y[..., :n].reshape(*batch, d, d)
        return y[..., :n], a, a.swapaxes(-1, -2), y[..., n:].reshape(v.shape)

    atw, g = np.empty(v.shape), np.empty(v.shape)
    g_t = g.swapaxes(-1, -2)
    squares, norms = np.empty((*batch, n)), np.empty(batch)
    # np.dot takes half of matmul's dispatch time on 2-D operands and
    # gives the same bytes there; a stack needs matmul
    subtract, product = np.subtract, np.matmul if batch else np.dot

    def rhs(y, out):
        _, a, a_t, w = y
        _, da, _, dw = out
        subtract(v, product(a_t, w, atw), g)
        product(w, g_t, da)
        product(a, g, dw)

    def step(y):
        np.add.reduce(np.square(y[0], squares), axis=-1, out=norms)
        return min(5e-3, 0.05 / (1.0 + float(norms.max())))

    y0 = np.concatenate([np.reshape(a, (*batch, n)), np.reshape(w, (*batch, d * k))], axis=-1)
    y, converged = rk4(rhs, y0, t_max, step, tol, split)
    _, a, _, w = split(y)
    return a, w, converged


def gd_pop_flow_numeric(params: TwoLayerParams, task: Task,
                        t_max: float = 1e4, tol: float = 1e-10):
    """gd_pop_flow on one pair and one task; returns (TwoLayerParams,
    converged)."""
    a, w, converged = gd_pop_flow(params.first_dense(), params.second[:, None],
                                  task.target[:, None], t_max, tol)
    return TwoLayerParams(a, w[:, 0]), converged


def gd2_reg(lam: float, ds: Dataset, a0) -> TwoLayerParams:
    """Ridge regression on the second layer with the first layer frozen.

    Minimizes (1/2n) ||X A0^T w - y||^2 + (lam/2) ||w||^2, the empirical
    loss of x -> w^T A0 x plus the penalty; the optimum is
    w = (A0 S A0^T + lam I)^{-1} A0 X^T y / n with S the empirical
    covariance, and the effective predictor is A0^T w. Requires lam > 0
    so the optimum is unique. Raises NumericalError if rounding leaves the
    (symmetrized) ridge matrix without a positive smallest eigenvalue.
    """
    if lam <= 0.0:
        raise ValueError(f"gd2_reg requires lam > 0, got {lam}")
    a_dense = as_dense(a0)
    with np.errstate(over="ignore", invalid="ignore"):  # sym_eigen rejects inf and NaN
        m = a_dense @ emp_covariance(ds) @ a_dense.T + lam * np.eye(ds.d)
    s, v = sym_eigen(m)
    if s[-1] <= 0.0:
        raise NumericalError(f"ridge matrix A0 S A0^T + lam I not positive definite: "
                             f"smallest eigenvalue {s[-1]:.3e}")
    b = a_dense @ (ds.x.T @ ds.y / ds.n)
    return TwoLayerParams(a0, v @ ((1.0 / s) * (v.T @ b)))
