"""The in-house DOP853 stepper against SciPy's solve_ivp(method="DOP853"),
which runs the same method with the same step-size control."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from cosymlab import catalog, cli, dop853, phase as P

REL = 1e-12
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


def close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= REL * np.maximum(1.0, np.abs(b))))


def reference(rhs, t1, y0, tol):
    return solve_ivp(lambda _t, y: rhs(y), (0.0, t1), y0, method="DOP853",
                     rtol=tol, atol=1e-2 * tol, dense_output=True)


def test_catalog_covers_constant_and_inline_omega():
    names = [name for name, _ in constant_omega_systems()]
    assert {"harmonic_oscillator", "oscillator_2dof_sqrt2", "canonical_r4",
            "t4_product", "t6_product"} <= set(names)
    assert cli.build_inline_system(INLINE).omega.constant_value is None


@pytest.mark.parametrize("name, system", cases(), ids=[c[0] for c in cases()])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("t1, tol", [(7.3, 1e-10), (-2.9, 1e-6)])
def test_matches_solve_ivp(name, system, batch, t1, tol):
    rng = np.random.default_rng(batch)
    starts = 0.5 + rng.uniform(-0.4, 0.4, size=(batch, system.dim))
    if batch == 1:
        x0 = starts[0]
        sol = P.integrate_batch(system, x0[None], 0.0, t1, tol, dense=True)
        rhs = system.field
    else:
        # one group of five orbits: a single row, stacked as solve_ivp stacks it
        x0 = starts.ravel()
        sol = P.integrate_batch(system, starts[None], 0.0, t1, tol, dense=True)

        def rhs(y):
            return system.field(y.reshape(batch, system.dim)).ravel()

    ref = reference(rhs, t1, x0, tol)
    assert sol.success and ref.success
    # bit for bit: the same accepted steps, the same states on them and the
    # same dense output
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, ref.y)
    ts = rng.uniform(min(0.0, t1), max(0.0, t1), 40)
    assert np.array_equal(sol.sol(ts), ref.sol(ts))
    assert np.array_equal(sol.sol(ts[0]), ref.sol(ts[0]))
    assert np.array_equal(sol.sol(sol.t), ref.sol(ref.t))  # step ends take the earlier segment


def test_dense_output_extrapolates_like_solve_ivp():
    system = catalog.get_system("harmonic_oscillator")
    sol = P.integrate_batch(system, [[1.0, 0.0]], 0.0, 3.0, 1e-8, dense=True)
    ref = reference(system.field, 3.0, np.array([1.0, 0.0]), 1e-8)
    outside = np.array([-0.1, 3.05])
    assert close(sol.sol(outside), ref.sol(outside))


def test_states_without_dense_output():
    system = catalog.get_system("oscillator_2dof_sqrt2")
    sol = P.integrate_batch(system, [[0.6, 0.0, 0.8, 0.0]], 0.0, 5.0)
    assert sol.sol is None
    assert sol.y.shape == (4, len(sol.t)) and sol.t[0] == 0.0 and sol.t[-1] == 5.0


def test_stalled_step_raises():
    # y' = 1 + y^2 reaches infinity at t = pi/2, where SciPy reports a stall
    ref = solve_ivp(lambda _t, y: 1.0 + y ** 2, (0.0, 10.0), [0.0], method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert not ref.success
    with pytest.raises(dop853.StepSizeUnderflow, match="stalled"):
        dop853.solve(lambda y: 1.0 + y ** 2, 0.0, 10.0, [0.0], 1e-10, 1e-12)
    assert P.StepSizeUnderflow is dop853.StepSizeUnderflow


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        dop853.solve(lambda y: y, 1.0, 1.0, [1.0], 1e-8, 1e-10)
    with pytest.raises(ValueError, match="finite"):
        dop853.solve(lambda y: y, 0.0, 1.0, [np.nan], 1e-8, 1e-10)
    with pytest.raises(ValueError, match="one vector"):
        dop853.solve(lambda y: y, 0.0, 1.0, [[[1.0]]], 1e-8, 1e-10)


def test_initial_step_survives_an_overflowing_norm():
    # a zero component has error scale atol, so a field of order 1e150 there
    # squares past the largest float in the starting-step norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = dop853.solve(lambda y: np.array([y[1], -y[0]]), 0.0, 1.0, [1e150, 0.0],
                           1e-10, 1e-12)
    first = sol.t[1] - sol.t[0]
    assert np.isfinite(first) and first > 1e-300
    assert np.allclose(sol.y[:, -1] / 1e150, [np.cos(1.0), -np.sin(1.0)], rtol=0, atol=1e-8)
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


def _dense(direction):
    system = catalog.get_system("oscillator_2dof_sqrt2")
    starts = np.array([[0.6, 0.0, 0.8, 0.0], [0.1, 0.3, -0.9, 0.2], [1.2, -0.4, 0.0, 0.5]])
    return P.integrate_batch(system, starts[None], 0.0, 9.0 * direction, 1e-8, dense=True).sol


DENSE = {1: _dense(1), -1: _dense(-1)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, -1]), st.integers(1, 60), st.data())
def test_dense_output_is_split_invariant(direction, m, data):
    # every time is evaluated on its own, so any split of a time array
    # evaluates to the same bits
    sol = DENSE[direction]
    span = np.sort(sol.t)
    pool = st.one_of(st.sampled_from(list(span)),
                     st.floats(span[0] - 0.5, span[-1] + 0.5, allow_nan=False))
    ts = np.array(data.draw(st.lists(pool, min_size=m, max_size=m)))
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=6)))
    parts = np.split(ts, cuts)
    whole = sol(ts)
    assert np.array_equal(whole, np.concatenate([sol(p) for p in parts], axis=1))
    assert all(np.array_equal(whole[:, k], sol(t)) for k, t in enumerate(ts[:5]))
