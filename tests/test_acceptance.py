"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""
import json
import math
import time

import numpy as np
from helpers import divergence, energy_drift, first_return, jacobians

from cosymlab import catalog, cli, cosym, forms as F, obstruct, phase, section, tischler

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_product_pipeline():
    t0 = time.perf_counter()
    ok = True
    details = []
    for seed_name in ("t3", "t5"):
        system = cosym.build_product_system(catalog.SEEDS[seed_name]())
        margins = system.validate(system.manifold.sample(np.random.default_rng(1), 64))
        ok &= margins["d_omega_max"] < 1e-6 and margins["omega_rcond_min"] > 1e-10

        sec = section.coordinate_section(system.manifold, system.dim - 2)
        samples = catalog.PRODUCT.starts(system, np.random.default_rng(2), 1000, 0.0)
        rep = section.verify_global(system, sec, samples, t_max=100.0, tol=1e-10)
        ok &= rep.passed
        ok &= abs(rep.max_return_time - TWO_PI) < 1e-6

        identity_dev = 0.0
        for x in samples[:10]:
            image = first_return(system, sec, x, tol=1e-10).states[0, 0]
            gap = system.manifold.wrapped_delta(image, x)
            identity_dev = max(identity_dev, float(np.max(np.abs(gap))))
        ok &= identity_dev < 1e-8
        details.append(f"{seed_name}: maxT err {abs(rep.max_return_time - TWO_PI):.1e}, "
                       f"identity dev {identity_dev:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(1, "product pipeline on both seeds (structure, globality, identity return)",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_return_map_symplecticity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    t4 = catalog.product_system("t3")
    pts4 = catalog.PRODUCT.starts(t4, rng, 100, 0.0)
    sec4 = section.coordinate_section(t4.manifold, t4.dim - 2)
    dets4 = np.linalg.det(jacobians(t4, sec4, pts4, t_max=100.0, tol=1e-10))
    osc = catalog.oscillator_2dof()
    pts_osc = catalog.sample_oscillator_surface(osc, 1.0, rng, 100)
    dets_osc = np.linalg.det(jacobians(osc, section.angle_section(), pts_osc,
                                       t_max=100.0, tol=1e-10))
    err4 = float(np.max(np.abs(dets4 - 1.0)))
    err_osc = float(np.max(np.abs(dets_osc - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = err4 < 1e-6 and err_osc < 1e-6 and elapsed < 60.0
    report(2, "return-map determinant within 1e-6 of 1 at 100 points per system",
           ok, f"product {err4:.1e}, oscillator {err_osc:.1e}, {elapsed:.1f}s")


def test_criterion_3_sections_are_symplectic_submanifolds():
    rng = np.random.default_rng(4)
    t4 = catalog.product_system("t3")
    t6 = catalog.product_system("t5")
    osc = catalog.oscillator_2dof()
    cases = {
        "t4 leaf": (t4, section.coordinate_section(t4.manifold, t4.dim - 2),
                    catalog.PRODUCT.starts(t4, rng, 100, 0.0)),
        "t6 leaf": (t6, section.coordinate_section(t6.manifold, t6.dim - 2),
                    catalog.PRODUCT.starts(t6, rng, 100, 0.0)),
        "oscillator section": (osc, section.angle_section(),
                               catalog.sample_oscillator_surface(osc, 1.0, rng, 100)),
    }
    margins = {}
    for name, (system, sec, points) in cases.items():
        dets = [np.linalg.det(section.restricted_form_matrix(system, sec, x)) for x in points]
        margins[name] = float(np.min(np.abs(dets)))

    ok = all(m > 0.5 for m in margins.values())
    report(3, "every certified section passes the restricted-form nondegeneracy test",
           ok, ", ".join(f"{k}: {v:.3f}" for k, v in margins.items()))


def test_criterion_4_roundtrip_and_collar():
    t4 = catalog.product_system("t3")
    Z = catalog.SYSTEMS["t4_product"].level(t4)
    samples = catalog.torus(3).sample(np.random.default_rng(5), 64)

    # X = -d/dtheta, given by its one-form iota_X omega = X^T M
    X = np.array([0.0, 0.0, 0.0, -1.0])
    alpha = F.constant_form(4, 1, X @ F.two_form_matrix(t4.omega, np.zeros(4)))
    cs = cosym.field_to_cosym(Z, alpha, samples)
    recovered = cosym.cosym_to_field(Z, cs, samples)
    roundtrip_err = float(np.max(np.abs(recovered.field_values - X)))

    collar = cosym.collar_form(catalog.seed_t3())
    incl = F.ChartMap.coordinate_inclusion(4, [0, 1, 2], {3: 0.0})
    restricted = F.pullback(incl, collar)
    beta = catalog.seed_t3().beta
    collar_exact = bool(np.array_equal(restricted.coeffs(samples), beta.coeffs(samples)))

    ok = roundtrip_err < 1e-8 and collar_exact
    report(4, "transverse-field round trip to 1e-8 and exact collar restriction",
           ok, f"roundtrip {roundtrip_err:.1e}, collar exact: {collar_exact}")


def test_criterion_5_tischler_pipeline():
    t0 = time.perf_counter()
    t2 = catalog.torus(2)
    alpha = F.coordinate_form(2, 0) + SQRT2 * F.coordinate_form(2, 1)
    pv = tischler.periods(alpha, t2)
    ra = tischler.rationalize(pv, 1e-2, 100)
    leaf = section.leaf_section(t2, ra.n)
    flow_sys = phase.FlowSystem(t2, lambda x: np.broadcast_to(np.array([1.0, 1.0]),
                                                              np.shape(x)))
    alpha_prime = tischler.build_approximation(alpha, pv, ra)
    trans = tischler.check_transversality_preserved(
        flow_sys, alpha_prime, t2.sample(np.random.default_rng(6), 64), alpha)
    leaf_margin = first_return(flow_sys, leaf, [0.0, 0.0]).margins[0, 0]
    elapsed = time.perf_counter() - t0
    ok = (ra.d <= 100 and ra.epsilon_achieved <= 1e-2
          and (ra.d, list(ra.n)) == (70, [70, 99])
          and trans.passed and trans.min_margin > 0.0
          and leaf_margin > 0.0
          and elapsed < 5.0)
    report(5, "period rationalization meets the tolerance and yields a transverse leaf",
           ok, f"d={ra.d}, n={list(map(int, ra.n))}, err={ra.epsilon_achieved:.2e}, "
               f"margin {trans.min_margin:.3f}, {elapsed:.2f}s")


def test_criterion_6_exactness_obstruction():
    # the verdict certifies the primitive; the closed-surface integrals of its
    # omega must then vanish
    r4 = catalog.canonical_r4()
    verdict = obstruct.exactness_verdict(r4)
    i_torus = obstruct.surface_integral(r4.omega, catalog.embedded_torus_r4(), n=256)
    i_sphere = obstruct.surface_integral(r4.omega, catalog.embedded_sphere_r4(), n=256)

    t4 = catalog.product_system("t3")
    i_t4 = obstruct.surface_integral(t4.omega, catalog.coordinate_torus_t4(), n=256)

    ok = (abs(i_torus) < 1e-8 and abs(i_sphere) < 1e-8 and verdict.negative
          and abs(i_t4 - TWO_PI ** 2) < 1e-8)
    report(6, "exact form: closed-surface integrals vanish and the verdict is negative",
           ok, f"torus {i_torus:.1e}, sphere {i_sphere:.1e}, "
               f"coordinate torus {i_t4:.6f} vs {TWO_PI ** 2:.6f}")


def test_criterion_7_betti_obstruction():
    s3 = obstruct.betti_necessary_condition(catalog.BETTI_PROFILES["s3"])
    t3 = obstruct.betti_necessary_condition(catalog.BETTI_PROFILES["t3"])
    s2s1 = obstruct.betti_necessary_condition(catalog.BETTI_PROFILES["s2xs1"])
    ok = (s3.negative and s3.evidence["failing_degree"] == 1
          and not t3.negative and not s2s1.negative)
    report(7, "Betti condition fails the 3-sphere at degree 1 and passes the others",
           ok, f"s3 degree {s3.evidence['failing_degree']}")


def test_criterion_8_conservation_suite():
    tol = 1e-10
    rng = np.random.default_rng(7)
    cases = {
        "harmonic_oscillator": (catalog.harmonic_oscillator(), np.array([1.0, 0.0])),
        "oscillator_2dof_sqrt2": (catalog.oscillator_2dof(), np.array([0.6, 0.0, 0.8, 0.0])),
        "canonical_r4": (catalog.canonical_r4(), np.array([0.3, -0.2, 0.5, 1.0])),
        "t4_product": (catalog.product_system("t3"), np.array([0.1, 0.2, 0.3, 0.0])),
        "t6_product": (catalog.product_system("t5"),
                       np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.0])),
    }
    worst_drift, worst_div, worst_comp = 0.0, 0.0, 0.0
    for name, (system, x0) in cases.items():
        chart = system.manifold
        worst_drift = max(worst_drift, energy_drift(system, chart.reduce(x0), 100.0, tol=tol))
        for x in chart.sample(rng, 8):
            worst_div = max(worst_div, abs(divergence(system, chart.reduce(x))))

        def end(x, t):
            return chart.reduce(phase.integrate_batch(system.field, x[None], t, tol)[0])

        two, one = end(end(x0, 0.9), 1.3), end(x0, 2.2)
        worst_comp = max(worst_comp, float(np.max(np.abs(chart.wrapped_delta(two, one)))))
    ok = worst_drift < 1e-8 and worst_div < 1e-6 and worst_comp < 10 * tol
    report(8, "energy drift, divergence and flow composition within tolerances",
           ok, f"drift {worst_drift:.1e}, div {worst_div:.1e}, composition {worst_comp:.1e}")


def test_criterion_9_deterministic_reports(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": "t3", "samples": 30, "t_max": 30.0,
                               "n_return_points": 2}))
    outs = []
    for run in ("a", "b"):
        code = cli.main(["demo-product", "--config", str(cfg),
                         "--out", str(tmp_path / run), "--seed", "0"])
        assert code == 0
        outs.append(json.loads((tmp_path / run / "report.json").read_text()))
    identical = json.dumps(outs[0]["report"], sort_keys=True) == \
        json.dumps(outs[1]["report"], sort_keys=True)
    timestamped = all("timestamp" in o["meta"] for o in outs)
    report(9, "repeated runs produce byte-identical reports modulo the volatile field",
           identical and timestamped)
