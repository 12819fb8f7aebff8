"""The in-house DOP853 stepper against SciPy's solve_ivp(method="DOP853"),
which runs the same method with the same step-size control."""
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cosymlab import catalog, cli, dop853, phase as P

from helpers import step_recorder

INLINE = cli.validate("obstruct", {"system": {
    "dim": 2, "coordinates": ["q", "p"], "omega": [[0, 1, "1 + 0.5*sin(q)"]],
    "hamiltonian": "0.5*(q^2 + p^2)"}})["system"]


def constant_omega_systems():
    systems = [(name, catalog.get_system(name)) for name in catalog.SYSTEMS]
    return [(name, s) for name, s in systems
            if getattr(getattr(s, "omega", None), "constant_value", None) is not None]


def cases():
    out = [(name, s) for name, s in constant_omega_systems()]
    out.append(("inline non-constant omega", cli.build_inline_system(INLINE)))
    return out


def reference(rhs, t1, y0, tol, first_step=None):
    return solve_ivp(lambda _t, y: rhs(y), (0.0, t1), y0, method="DOP853",
                     rtol=tol, atol=1e-2 * tol, first_step=first_step)


def test_catalog_covers_constant_and_inline_omega():
    names = [name for name, _ in constant_omega_systems()]
    assert {"harmonic_oscillator", "oscillator_2dof_sqrt2", "canonical_r4",
            "t4_product", "t6_product"} <= set(names)
    assert cli.build_inline_system(INLINE).omega.constant_value is None


def assert_matches_solve_ivp(system, batch, t1, tol, first_step=None):
    """One orbit, or a group of five stacked into one row as solve_ivp stacks
    it, integrated by integrate_batch and by solve_ivp: the same accepted
    steps, the same states on them, the last of them the end state, and the
    same field calls.  A negative t1 is solve_ivp's backward integration
    against integrate_batch's of the reversed field forward to |t1|, as a
    backward crossing scan integrates: its times are solve_ivp's negated.
    Returns solve_ivp's result."""
    rng = np.random.default_rng(batch)
    x0 = (0.5 + rng.uniform(-0.4, 0.4, size=(batch, system.dim))).ravel()
    sign = 1.0 if t1 > 0 else -1.0

    def rhs(y):
        return system.field(y.reshape(-1, system.dim)).reshape(y.shape)

    log, calls = [], []

    def counted(y):
        calls.append(1)
        f = system.field(y) if batch == 1 else rhs(y)
        return f if t1 > 0 else -f

    end = P.integrate_batch(counted, x0[None], abs(t1), tol, step=step_recorder(log),
                            first_step=first_step)[0]
    ref = reference(rhs, t1, x0, tol, first_step)
    assert ref.success
    t = sign * np.concatenate([[0.0], [t_new[0] for t_new, _ in log]])
    y = np.column_stack([x0] + [y_new[0] for _, y_new in log])
    assert np.array_equal(t, ref.t)
    assert np.array_equal(y, ref.y)
    assert np.array_equal(end, ref.y[:, -1])
    assert len(calls) == ref.nfev
    return ref


@pytest.mark.parametrize("name, system", cases(), ids=[c[0] for c in cases()])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("t1, tol", [(7.3, 1e-10), (-2.9, 1e-6), (20.0, 1e-10)])
def test_matches_solve_ivp(name, system, batch, t1, tol):
    assert_matches_solve_ivp(system, batch, t1, tol)


def rejections(ref) -> int:
    """Steps solve_ivp's error control rejected, from its field calls: one for
    the start, and 12 per attempted step when the first step is given."""
    return (ref.nfev - 1) // 12 - (len(ref.t) - 1)


# a first step the error control rejects on every non-linear case below
REJECTED_FIRST_STEP = 2.5


@pytest.mark.parametrize("name, system", cases(), ids=[c[0] for c in cases()])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("t1, tol", [(7.3, 1e-10), (-2.9, 1e-6), (20.0, 1e-10)])
@pytest.mark.parametrize("first", ["span", "rejected"])
def test_matches_solve_ivp_from_a_first_step(name, system, batch, t1, tol, first):
    # the whole span is the first step of a crossing refinement; on a linear
    # or constant field the error estimate is rounding noise and passes any step
    ref = assert_matches_solve_ivp(system, batch, t1, tol,
                                   abs(t1) if first == "span" else REJECTED_FIRST_STEP)
    linear = name in ("canonical_r4", "t4_product", "t6_product")
    assert (rejections(ref) == 0) if linear else (rejections(ref) > 0)


def test_stalled_step_raises():
    # y' = 1 + y^2 reaches infinity at t = pi/2, where SciPy reports a stall
    ref = solve_ivp(lambda _t, y: 1.0 + y ** 2, (0.0, 10.0), [0.0], method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert not ref.success
    with pytest.raises(dop853.StepSizeUnderflow, match="stalled"):
        dop853.solve(lambda y: 1.0 + y ** 2, 10.0, [[0.0]], 1e-10, 1e-12)


def test_rejects_bad_input():
    # the integration runs forward from t = 0
    for t1 in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="t1 must be positive"):
            dop853.solve(lambda y: y, t1, [[1.0]], 1e-8, 1e-10)
    with pytest.raises(ValueError, match="finite"):
        dop853.solve(lambda y: y, 1.0, [[np.nan]], 1e-8, 1e-10)
    # a state is rows of vectors: a single vector is refused like a 3-d array
    for y0 in ([1.0], [[[1.0]]]):
        with pytest.raises(ValueError, match="rows of vectors"):
            dop853.solve(lambda y: y, 1.0, y0, 1e-8, 1e-10)


@pytest.mark.parametrize("first_step", [0.0, -0.5, np.nan, np.inf, 2.0 + 1e-15])
@pytest.mark.parametrize("t1", [2.0, -2.0])
def test_rejects_a_first_step_outside_the_span(first_step, t1):
    # as solve_ivp: positive and at most t1; a NaN is refused too.  The span
    # runs forward from 0, so a negative t1 is refused whatever the first step
    with pytest.raises(ValueError, match="first_step" if t1 > 0 else "t1 must be positive"):
        dop853.solve(lambda y: y, t1, [[1.0]], 1e-8, 1e-10, first_step=first_step)
    if t1 > 0:
        dop853.solve(lambda y: y, t1, [[1.0]], 1e-8, 1e-10, first_step=2.0)


def test_initial_step_survives_an_overflowing_norm():
    # a zero component has error scale atol, so a field of order 1e150 there
    # squares past the largest float in the starting-step norm
    log = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end = dop853.solve(lambda y: y[:, ::-1] * [1.0, -1.0], 1.0, [[1e150, 0.0]],
                           1e-10, 1e-12, step_recorder(log))
    first = log[0][0][0]
    assert np.isfinite(first) and first > 1e-300
    assert np.allclose(end[0] / 1e150, [np.cos(1.0), -np.sin(1.0)], rtol=0, atol=1e-8)
    x = np.array([3e200, 0.0, -4e200])
    assert dop853._rms(x) == pytest.approx(5e200 / np.sqrt(3.0), rel=1e-15)


def test_step_factor_powers_match_python_pow():
    # the step factors are taken with math.pow, one row at a time; Python's
    # float ** float is the reference, zero error keeps the infinite factor
    rng = np.random.default_rng(4)
    err = np.concatenate([10.0 ** rng.uniform(-320.0, 300.0, 2000), rng.uniform(0.0, 3.0, 2000),
                          [0.0, 5e-324, 1e-310, 1.0, np.inf, np.nan]])
    loop = [dop853.SAFETY * e ** dop853.ERROR_EXPONENT if e else np.inf for e in err.tolist()]
    assert np.array_equal(dop853._factors(err), loop, equal_nan=True)
    base = err[np.isfinite(err)]
    assert np.array_equal(dop853._scalar_powers(base, -dop853.ERROR_EXPONENT),
                          [b ** -dop853.ERROR_EXPONENT for b in base.tolist()])
