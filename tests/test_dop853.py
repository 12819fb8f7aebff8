"""The in-house DOP853 stepper against SciPy's solve_ivp(method="DOP853"),
which runs the same method with the same step-size control."""
import numpy as np
import pytest
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
        x0 = starts.ravel()
        sol = P.integrate_batch(system, starts, 0.0, t1, tol, dense=True)

        def rhs(y):
            return system.field(y.reshape(batch, system.dim)).ravel()

    ref = reference(rhs, t1, x0, tol)
    assert sol.success and ref.success
    assert close(sol.t, ref.t)                  # the same accepted steps
    assert close(sol.y, ref.y)                  # ... and states on them
    ts = rng.uniform(min(0.0, t1), max(0.0, t1), 40)
    assert close(sol.sol(ts), ref.sol(ts))
    assert close(sol.sol(ts[0]), ref.sol(ts[0]))
    assert close(sol.sol(sol.t), ref.sol(ref.t))  # step ends take the earlier segment


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
        dop853.solve(lambda y: y, 0.0, 1.0, [[1.0]], 1e-8, 1e-10)
