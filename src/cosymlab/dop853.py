"""Batched adaptive integration with the explicit Runge-Kutta method DOP853.

DOP853 is the Dormand-Prince pair of order 8 with embedded error estimators
of orders 5 and 3 and a dense output of order 7 (E. Hairer, S. P. Norsett,
G. Wanner, *Solving Ordinary Differential Equations I: Nonstiff Problems*,
2nd ed., Springer 1993, sections II.5-II.6; E. Hairer's Fortran code
``dop853.f``).  A step takes 12 stages; the dense output of a step takes 3
more.

`solve` integrates rows of state vectors, each on its own steps: a row has
its own time, step size, error norm and accept/reject decision, and every
stage of a step is one batched field call over the rows still going.  A row
is one orbit, or a group of orbits stacked into one vector that shares one
step sequence.  Each row's step-size control is the one of SciPy's
``solve_ivp(method="DOP853")``, operation for operation, so that one row
takes the same steps and reaches the same states:

- error scale ``atol + rtol * max(|y_old|, |y_new|)`` and the RMS norm over
  the row;
- the initial step of Hairer-Norsett-Wanner section II.4;
- step factor ``0.9 * err**(-1/8)``, clipped to [0.2, 10], and no growth
  right after a rejected step;
- a step smaller than ten floating-point spacings of the current time stalls
  the row (`StepSizeUnderflow`).

A step hook can shorten or reject a row's steps and end the row, so a caller
can watch each orbit on its own steps.  The dense output of a one-row solve
is evaluated segment by segment into one output array, so it never holds
more than the requested points plus one segment's share.  The powers
of the step control are the C library's scalar ones, taken one row at a time
(`_scalar_powers`), since NumPy's vectorised power can differ in the last bit.

The coefficient tables below are SciPy's ``integrate/_ivp/dop853_coefficients.py``,
used under its licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Optional

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7
ERROR_EXPONENT = -1.0 / 8.0     # -1 / (order of the error estimator + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
RTOL_MIN = 100 * np.finfo(float).eps

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# dense output: the first 3 interpolant coefficients come from the step itself
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3


class StepSizeUnderflow(RuntimeError):
    """Adaptive integration failed to reach the target time: ``rows`` are the
    rows whose step size fell below the floating-point spacing of their time,
    and ``times`` the times they stalled at."""

    def __init__(self, rows: np.ndarray, times: np.ndarray):
        super().__init__(f"integration stalled at t = {times[0]:.6g}: the step size "
                         "fell below the spacing of floating-point numbers")
        self.rows = rows
        self.times = times


def _scalar_powers(base: np.ndarray, exponent: float) -> np.ndarray:
    """base**exponent by the C library's scalar pow, one value at a time:
    NumPy's vectorised power can differ from it in the last bit, and one row
    must take SciPy's steps."""
    return np.fromiter(map(math.pow, base.tolist(), repeat(exponent, len(base))), float, len(base))


def _factors(err: np.ndarray) -> np.ndarray:
    """SciPy's step factor SAFETY * err**(-1/8) of every row, inf where err
    is 0."""
    zero = err == 0
    factor = SAFETY * _scalar_powers(np.where(zero, 1.0, err), ERROR_EXPONENT)
    factor[zero] = np.inf
    return factor


def _rms(x: np.ndarray):
    """RMS over the last axis of x.  A sum of squares that overflows on finite
    values is recomputed with them scaled by their largest magnitude; a finite
    norm keeps SciPy's bits."""
    rows = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.vecdot(rows, rows))
        big = np.isinf(norm) & np.isfinite(rows).all(axis=1)
        if big.any():
            m = np.max(np.abs(rows[big]), axis=1, keepdims=True)
            scaled = rows[big] / m
            norm[big] = m[:, 0] * np.sqrt(np.vecdot(scaled, scaled))
    return (norm / x.shape[-1] ** 0.5).reshape(x.shape[:-1])[()]


def _initial_step(fun, y0, f0, span, direction, rtol, atol) -> np.ndarray:
    """Hairer-Norsett-Wanner's starting step (section II.4) of every row."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    f1 = fun(y0 + h0[:, None] * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    with np.errstate(divide="ignore"):
        base = 0.01 / np.maximum(d1, d2)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), _scalar_powers(base, -ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), span)


def _error_norm(K: np.ndarray, h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """RMS norm of the blended 5th/3rd-order error estimate of each row's
    step; K holds the stages of the rows side by side, scale is (rows, n)."""
    err5 = np.dot(K.T, E5).reshape(scale.shape) / scale
    err3 = np.dot(K.T, E3).reshape(scale.shape) / scale
    err5_norm_2 = np.sqrt(np.vecdot(err5, err5)) ** 2
    err3_norm_2 = np.sqrt(np.vecdot(err3, err3)) ** 2
    denom = err5_norm_2 + 0.01 * err3_norm_2
    # a vanishing estimate has norm 0 (its numerator is 0 too)
    denom += denom == 0
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * scale.shape[1])


def _interpolant(fun, K: np.ndarray, h: float, y_old: np.ndarray, y: np.ndarray,
                 f: np.ndarray) -> np.ndarray:
    """Coefficients (7, n) of the 7th-order interpolant over the last step;
    K holds the step's 13 stages and receives the 3 extra ones."""
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        dy = np.dot(K[:s].T, A[s, :s]) * h
        K[s] = fun(y_old + dy)
    F = np.empty((INTERPOLATOR_POWER, len(y)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


class DenseOutput:
    """Piecewise interpolant of a solution: segment i spans t[i] .. t[i + 1],
    starts at state ys[i] and has coefficients coeffs[i].  A time on a step
    boundary belongs to the earlier segment; times outside the span are
    extrapolated from the end segments."""

    def __init__(self, t: np.ndarray, ys: np.ndarray, coeffs: list):
        self.t = t
        self.ys = ys
        self.coeffs = coeffs

    def __call__(self, t) -> np.ndarray:
        """States (n,) at a scalar time, or (n, m) at m times.  Each time is
        evaluated on its own, so the states do not depend on which other times
        share the call."""
        t = np.asarray(t, dtype=float)
        times = np.atleast_1d(t)
        last = len(self.coeffs) - 1
        if self.t[-1] >= self.t[0]:
            seg = np.searchsorted(self.t, times, side="left") - 1
        else:
            seg = last - (np.searchsorted(self.t[::-1], times, side="right") - 1)
        seg = np.clip(seg, 0, last)
        out = np.empty((len(times), self.ys.shape[1]))
        order = np.argsort(seg, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(seg[order])) + 1) if order.size else ():
            s = seg[rows[0]]
            x = ((times[rows] - self.t[s]) / (self.t[s + 1] - self.t[s]))[:, None]
            y = np.zeros((len(rows), self.ys.shape[1]))
            for i, f in enumerate(self.coeffs[s][::-1]):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            out[rows] = y + self.ys[s]
        return out[0] if t.ndim == 0 else out.T


class Solution:
    """Where each row's integration ended: times ``t_end`` (rows,) and states
    ``y_end`` (rows, n).  A one-row solve also keeps its accepted step times
    ``t`` (m,), the states ``y`` (n, m) on them and, when it was requested,
    the dense output ``sol`` (else None)."""

    success = True

    def __init__(self, t_end: np.ndarray, y_end: np.ndarray, t: Optional[np.ndarray] = None,
                 y: Optional[np.ndarray] = None, sol: Optional[DenseOutput] = None):
        self.t_end = t_end
        self.y_end = y_end
        self.t = t
        self.y = y
        self.sol = sol


def solve(fun: Callable[[np.ndarray], np.ndarray], t0: float, t1: float, y0,
          rtol: float, atol: float, dense: bool = False,
          step: Optional[Callable] = None) -> Solution:
    """Integrate the autonomous system y' = fun(y) from t0 to t1, every row of
    the state on its own steps.

    ``y0`` holds rows (rows, n), and ``fun`` maps any (k, n) rows to (k, n):
    each stage of a step is one call over the rows still going.  Every row has
    its own time, step size, error norm and accept/reject decision, so it
    takes the steps it takes alone.  A single vector ``y0`` (n,) is one row,
    with ``fun`` mapping (n,) to (n,).  Dense output needs one row.

    ``step``, when given, sees every attempted step that passes the error
    control: ``step(rows, t, y, t_new, y_new, f, f_new)`` gets the indices,
    times, states and field values at both ends of those rows, and returns per
    row whether the step stands, a cap on the length of the row's next step,
    and whether the row is done after it.  A step that does not stand is
    retried at the cap, as after a rejection; a done row stops.

    A row whose step size falls below ten floating-point spacings of its time
    stalls; once every other row has finished, StepSizeUnderflow names the
    stalled rows.
    """
    t0, t1 = float(t0), float(t1)
    if t1 == t0:
        raise ValueError("empty integration interval")
    y = np.array(y0, dtype=float)
    if y.ndim == 1:
        vector_fun = fun

        def fun(rows):
            return vector_fun(rows[0])[None]

        y = y[None]
    if y.ndim != 2:
        raise ValueError("the initial state must be one vector or rows of vectors")
    if not np.isfinite(y).all():
        raise ValueError("the initial state must be finite")
    one_row = len(y) == 1
    if dense and not one_row:
        raise ValueError("dense output needs a single row")
    rtol = max(rtol, RTOL_MIN)
    direction = 1.0 if t1 > t0 else -1.0
    rows = np.arange(len(y))
    t = np.full(len(y), t0)
    f = fun(y)
    h_abs = _initial_step(fun, y, f, abs(t1 - t0), direction, rtol, atol)
    rejected = np.zeros(len(y), dtype=bool)
    t_end, y_end = t.copy(), y.copy()
    stalled, stall_times = [], []
    ts, ys, coeffs = [t0], list(y[:1]), []
    K_extended = np.empty((N_STAGES_EXTENDED, y.size))
    while rows.size:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if np.count_nonzero(rejected):
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            stall = h_abs < min_step
            if np.count_nonzero(stall):
                stalled += rows[stall].tolist()
                stall_times += t[stall].tolist()
                t_end[rows[stall]], y_end[rows[stall]] = t[stall], y[stall]
                keep = ~stall
                rows, t, y, f, h_abs, rejected = (a[keep] for a in (rows, t, y, f, h_abs, rejected))
                if not rows.size:
                    break
        else:
            h_abs = np.maximum(h_abs, min_step)
        t_new = t + h_abs * direction
        t_new = np.minimum(t_new, t1) if direction > 0 else np.maximum(t_new, t1)
        h = t_new - t
        h_abs = np.abs(h)
        h_each = np.repeat(h, y.shape[1])   # each row's step at each of its values
        if K_extended.shape[1] != y.size:
            K_extended = np.empty((N_STAGES_EXTENDED, y.size))
        # the stages of all rows side by side, and the same memory row by row
        K, K_rows = K_extended[:N_STAGES + 1], K_extended.reshape(N_STAGES_EXTENDED, *y.shape)
        K_rows[0] = f
        y_flat = y.reshape(-1)
        for s in range(1, N_STAGES):
            dy = np.dot(K[:s].T, A[s, :s]) * h_each
            K_rows[s] = fun((y_flat + dy).reshape(y.shape))
        y_new = (y_flat + h_each * np.dot(K[:-1].T, B)).reshape(y.shape)
        f_new = fun(y_new)
        K_rows[N_STAGES] = f_new
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(K, h, scale)
        fits = error_norm < 1
        accept, cap, done = fits, np.inf, False
        n_fit = np.count_nonzero(fits) if step is not None else 0
        if n_fit == len(rows):
            accept, cap, done = step(rows, t, y, t_new, y_new, f, f_new)
        elif n_fit:
            i = np.flatnonzero(fits)
            accept, cap, done = fits.copy(), np.full(len(rows), np.inf), np.zeros(len(rows), bool)
            accept[i], cap[i], done[i] = step(rows[i], t[i], y[i], t_new[i], y_new[i],
                                              f[i], f_new[i])
        factor = _factors(error_norm)
        grow = np.minimum(MAX_FACTOR, factor)
        if np.count_nonzero(rejected):
            grow = np.where(rejected, np.minimum(1, grow), grow)
        if one_row and accept[0]:
            if dense:
                coeffs.append(_interpolant(lambda v: fun(v[None])[0], K_extended, h[0],
                                           y[0], y_new[0], f_new[0]))
            ts.append(t_new[0])
            ys.append(y_new[0])
        if np.count_nonzero(accept) == len(accept):
            h_abs = np.minimum(h_abs * grow, cap)
            t, y, f = t_new, y_new, f_new
        else:
            h_abs = np.where(accept, np.minimum(h_abs * grow, cap),
                             np.where(fits, cap, h_abs * np.fmax(MIN_FACTOR, factor)))
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)
        rejected = ~accept
        end = accept & (done | (t == t1))
        if np.count_nonzero(end):
            t_end[rows[end]], y_end[rows[end]] = t[end], y[end]
            keep = ~end
            rows, t, y, f, h_abs, rejected = (a[keep] for a in (rows, t, y, f, h_abs, rejected))
    if stalled:
        raise StepSizeUnderflow(np.array(stalled), np.array(stall_times))
    if not one_row:
        return Solution(t_end, y_end)
    t_arr = np.array(ts)
    states = np.vstack(ys)
    return Solution(t_end, y_end, t_arr, states.T,
                    DenseOutput(t_arr, states, coeffs) if dense else None)
