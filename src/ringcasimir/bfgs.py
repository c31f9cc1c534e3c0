"""BFGS on the inverse Hessian (Nocedal & Wright, Numerical Optimization,
ch. 6) as a generator, driven as :func:`cobyla.cobyla` is.

The start matrix is I, scaled by s.y / y.y after the first accepted step
(their eq. 6.20), and the first step is min(1, 1/|g|) times -g.  An Armijo
line search (c1 = 1e-4) backtracks to the minimizer of the quadratic
through f(x), the slope and the rejected value, clamped to [0.1, 0.5]
times the rejected step.  The update is skipped when s.y <= 0, and a
direction that does not descend resets the matrix to I.  Matrix-vector
products run in ``np.einsum``'s own loops, not in BLAS, whose threaded
kernels may split them otherwise, so the path is the same at any OpenBLAS
thread count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bfgs"]

ARMIJO = 1e-4


def bfgs(x0: np.ndarray, tolerance: float):
    """BFGS from ``x0``: yields each point and takes ``(value, gradient)``
    by ``send``.  A caller without gradients sends ``(value, None)``; where
    one is needed (at ``x0`` and at accepted points) the generator then
    yields None and takes the gradient at that point.  Returns True when an
    accepted step lowers the value by less than ``tolerance`` (SLSQP's
    ``acc`` rule), when the line search shrinks its step until the trial
    point rounds to the current one, or at a zero gradient; False at a
    non-finite gradient.  The caller cuts the budget by sending no more."""
    x = np.array(x0, dtype=float)
    f, g = yield x
    if g is None:
        g = yield None
    eye = np.eye(x.size)
    inverse, scaled = eye, False
    step = min(1.0, 1.0 / math.hypot(*g)) if g.any() else 1.0
    while True:
        d = -np.einsum("ij,j->i", inverse, g)
        slope = float(g @ d)
        if not slope < 0:  # not a descent direction: restart from I
            inverse, d, slope = eye, -g, -float(g @ g)
        if not -math.inf < slope < 0:
            return slope == 0
        while True:
            trial = x + step * d
            if np.array_equal(trial, x):
                return True
            f_new, g_new = yield trial
            if f_new <= f + ARMIJO * step * slope:
                break
            curvature = f_new - f - slope * step  # > 0 when Armijo fails, unless rounding
            fit = -slope * step * step / (2.0 * curvature) if curvature > 0 else 0.0
            step = min(fit, 0.5 * step) if fit >= 0.1 * step else 0.1 * step
        if f - f_new < tolerance:
            return True
        if g_new is None:
            g_new = yield None
        s, y = trial - x, g_new - g
        x, f, g, step = trial, f_new, g_new, 1.0
        sy = float(s @ y)
        if sy > 0:
            if not scaled:
                inverse, scaled = eye * (sy / float(y @ y)), True
            hy = np.einsum("ij,j->i", inverse, y)
            inverse = (inverse + np.outer(s, s) * ((sy + y @ hy) / (sy * sy))
                       - (np.outer(hy, s) + np.outer(s, hy)) / sy)
