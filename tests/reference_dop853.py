"""A reference DOP853 integrator, the oracle of tests/test_dop853.py.

It integrates one state vector with one plain loop of steps, each over the
Dormand-Prince tableau (Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., section II.5), with the step-size control
of SciPy's ``solve_ivp(method="DOP853")`` written out as SciPy writes it:

- the starting step of Hairer-Norsett-Wanner section II.4, or the caller's
  ``first_step``;
- the error scale ``atol + rtol * max(|y_old|, |y_new|)`` and the RMS norm of
  the blended 5th/3rd-order estimate;
- the step factor ``0.9 * err**(-1/8)``, clipped to [0.2, 10], and no growth
  right after a rejected step;
- a step shorter than ten floating-point spacings of the current time stalls
  the integration.

Each stage sum is one matrix-vector product over the stages before it, as in
SciPy, so that a step rounds as SciPy's does.  A negative ``t1`` integrates
backward, with negative steps.  It takes the tableau (``A``, whose last row
holds the weights, ``E3`` and ``E5``) and the control constants from
`cosymlab.dop853` and nothing of `dop853.solve`: it steps one vector, with
scalar step control, where `solve` steps rows of vectors side by side.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from cosymlab.dop853 import (A, E3, E5, ERROR_EXPONENT, MAX_FACTOR, MIN_FACTOR, N_STAGES,
                             RTOL_MIN, SAFETY)


class Integration(NamedTuple):
    """The accepted step ends, from the start: times ``t`` (m,) and states
    ``y`` (n, m), and the field calls ``nfev``.  ``success`` is False when a
    step stalled; ``t[-1]`` is then the time it stalled at."""
    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def solve(fun, t1: float, y0, rtol: float, atol: float, first_step=None) -> Integration:
    """Integrate y' = fun(y), fun mapping a vector (n,) to (n,), from t = 0 to
    t1 != 0."""
    calls = 0

    def f(y):
        nonlocal calls
        calls += 1
        return np.asarray(fun(y), dtype=float)

    direction = 1.0 if t1 > 0 else -1.0
    span = abs(t1)
    rtol = max(rtol, RTOL_MIN)
    y = np.array(y0, dtype=float)
    fy = f(y)
    if first_step is None:
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(fy / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        d2 = _rms((f(y + h0 * direction * fy) - fy) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
        h_abs = min(100 * h0, h1, span)
    else:
        h_abs = first_step
    K = np.empty((N_STAGES + 1, y.size))
    t, ts, ys = 0.0, [0.0], [y]
    while t != t1:
        min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Integration(np.array(ts), np.column_stack(ys), calls, False)
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = fy
            for s in range(1, N_STAGES):
                K[s] = f(y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:N_STAGES].T, A[N_STAGES])
            f_new = K[N_STAGES] = f(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K, h, scale)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        t, y, fy = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return Integration(np.array(ts), np.column_stack(ys), calls, True)
