"""Acceptance gate: ten checks, one test and one printed verdict line each.

Every tolerance below is pinned; timing limits are the stated budgets.  The
eighth check asserts the quadratic-scaling window for both deformation
residuals exactly as stated.  Its commutator clause fails by design of the
underlying algebra (the compression of the cosine/sine pair commutes
exactly, so that residual is truncation leakage with a steep fitted slope);
the assertion message spells out every clause so the failure is
self-explaining.
"""

import json
import time

import numpy as np

from conftest import invoke, rel_dev
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

from btlab.bargmann import GaussianTestFn, egorov_guillemin_check
from btlab.basis import enumerate_multiindices, gram_matrix
from btlab.geometry import (
    build_context,
    fock_phase,
    heat_phase,
    kappa_T,
    phi_weight,
    psi,
)
from btlab.heat import (
    complex_box,
    heat_flow,
    heat_flow_quadrature,
    sw_diagnostic,
    sw_l1,
)
from btlab.operators import (
    bound_report,
    deformation_residuals,
    deformation_sweep,
    diagonal_sum_check,
    toeplitz_matrix,
    weyl_conjugation_check,
    weyl_unitary_matrix,
)
from btlab.symbols import (
    constant_symbol,
    cosine_symbol,
    eval_symbol,
    plane_wave_sum,
    sine_symbol,
)


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_geometry_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        ctx = build_context(fock_phase(1, beta), 0.7)
        X = 3.0 * (rng.random((100, 1)) - 0.5 + 1j * (rng.random((100, 1)) - 0.5))
        Y = 3.0 * (rng.random((100, 1)) - 0.5 + 1j * (rng.random((100, 1)) - 0.5))
        x = 3.0 * (rng.random((100, 1)) - 0.5)
        xi = 3.0 * (rng.random((100, 1)) - 0.5)
        Xk, Th = kappa_T(ctx, x, xi)
        worst = max(
            worst,
            rel_dev(phi_weight(ctx, X), beta * np.abs(X[:, 0]) ** 2 / 2),
            rel_dev(psi(ctx, X, Y), beta * X[:, 0] * Y[:, 0] / 2),
            rel_dev(ctx.PhiXX, np.zeros((1, 1))),
            rel_dev(Xk, x - 1j * xi / (2 * beta)),
            rel_dev(Th, -1j * beta * x + xi / 2),
        )
    ctx = build_context(heat_phase(1), 0.7)
    X = 3.0 * (rng.random((100, 1)) - 0.5 + 1j * (rng.random((100, 1)) - 0.5))
    Y = 3.0 * (rng.random((100, 1)) - 0.5 + 1j * (rng.random((100, 1)) - 0.5))
    x = 3.0 * (rng.random((100, 1)) - 0.5)
    xi = 3.0 * (rng.random((100, 1)) - 0.5)
    Xk, Th = kappa_T(ctx, x, xi)
    worst = max(
        worst,
        rel_dev(phi_weight(ctx, X), np.imag(X[:, 0]) ** 2 / 2),
        rel_dev(psi(ctx, X, Y), -((X[:, 0] - Y[:, 0]) ** 2) / 8),
        rel_dev(ctx.PhiXX, np.array([[-0.25]])),
        rel_dev(Xk, x - 1j * xi),
        rel_dev(Th, xi + 0j),
    )
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _verdict(1, ok, f"closed-form rel dev {worst:.2e} (tol 1e-12), {dt:.2f}s")
    assert ok


def test_criterion_02_orthonormality():
    t0 = time.perf_counter()
    trunc = enumerate_multiindices(1, 10)
    eye = np.eye(len(trunc))
    worst1 = 0.0
    for phase in (fock_phase(1, 1.0), heat_phase(1), random_phase(1, 9)):
        ctx = build_context(phase, 1.0)
        G = gram_matrix(ctx, trunc)
        worst1 = max(worst1, float(np.max(np.abs(G - eye))))
    ctx2 = build_context(fock_phase(2, 1.0), 1.0)
    trunc2 = enumerate_multiindices(2, 6)
    G2 = gram_matrix(ctx2, trunc2)
    worst2 = float(np.max(np.abs(G2 - np.eye(len(trunc2)))))
    dt = time.perf_counter() - t0
    ok = worst1 < 1e-8 and worst2 < 1e-6 and dt < 120.0
    _verdict(
        2,
        ok,
        f"gram dev n=1 {worst1:.2e} (tol 1e-8), n=2 {worst2:.2e} "
        f"(tol 1e-6), {dt:.1f}s",
    )
    assert ok


def test_criterion_03_projector_toeplitz_consistency():
    t0 = time.perf_counter()
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    trunc = enumerate_multiindices(1, 10)
    dev_id = float(np.max(np.abs(
        toeplitz_matrix(ctx, constant_symbol(1.0), trunc)
        - np.eye(len(trunc))
    )))
    dev_corner = 0.0
    zero = np.array([[0.0 + 0.0j]])
    for lam in (2.0, 1.0, 0.5 + 0.3j):
        b = plane_wave_sum([(1.0, np.array([lam]))], n=1)
        M = toeplitz_matrix(ctx, b, trunc)
        ref = complex(eval_symbol(heat_flow(ctx, b, 1.0), zero)[0])
        dev_corner = max(dev_corner, abs(M[0, 0] - ref))
    dev_diag = 0.0
    b = plane_wave_sum(
        [(1.0, np.array([1.0])), (0.3 - 0.2j, np.array([0.5 + 0.3j]))], n=1
    )
    M = toeplitz_matrix(ctx, b, trunc)
    for lhs, rhs in diagonal_sum_check(ctx, b, np.diag(M), trunc,
                                       (0, 1, 2)):
        dev_diag = max(dev_diag, abs(lhs - rhs))
    dt = time.perf_counter() - t0
    ok = max(dev_id, dev_corner, dev_diag) < 1e-8 and dt < 120.0
    _verdict(
        3,
        ok,
        f"unit {dev_id:.2e}, corner {dev_corner:.2e}, diag "
        f"{dev_diag:.2e} (tol 1e-8), {dt:.1f}s",
    )
    assert ok


def test_criterion_04_weyl_suite():
    t0 = time.perf_counter()
    trunc = enumerate_multiindices(1, 16)
    keep = trunc.count_through_degree(4)
    b = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    lams = (0.25, 0.5, 1.0, 0.6 + 0.8j)
    worst_u = worst_a = worst_c = 0.0
    for phase in (fock_phase(1, 1.0), heat_phase(1)):
        ctx = build_context(phase, 1.0)
        Tb = toeplitz_matrix(ctx, b, trunc)
        for lam in lams:
            lv = np.array([lam])
            W = weyl_unitary_matrix(ctx, lv, trunc)
            Wm = weyl_unitary_matrix(ctx, -lv, trunc)
            worst_u = max(worst_u, float(np.max(np.abs(
                (W.conj().T @ W - np.eye(len(trunc)))[:keep, :keep]
            ))))
            worst_a = max(worst_a, float(np.max(np.abs(
                (W.conj().T - Wm)[:keep, :keep]
            ))))
            worst_c = max(worst_c, weyl_conjugation_check(
                ctx, b, lv, W, Tb.__matmul__, trunc, drop=trunc.N - 4
            ))
    dt = time.perf_counter() - t0
    ok = max(worst_u, worst_a, worst_c) < 1e-5 and dt < 180.0
    _verdict(
        4,
        ok,
        f"unitarity {worst_u:.2e}, adjoint {worst_a:.2e}, conjugation "
        f"{worst_c:.2e} (tol 1e-5), {dt:.1f}s",
    )
    assert ok


def test_criterion_05_symbol_norm_bound():
    t0 = time.perf_counter()
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    symbols = (
        cosine_symbol(1.0),
        plane_wave_sum(
            [(1.0, np.array([0.0])), (-0.25j, np.array([1.0])),
             (0.25j, np.array([-1.0]))], n=1
        ),  # 1 + sin(Re X)/2
        plane_wave_sum(
            [(0.8, np.array([1.0])), (0.5 - 0.3j, np.array([-0.7 + 0.2j]))],
            n=1,
        ),
    )
    ok = True
    details = []
    for b in symbols:
        rep = bound_report(ctx, b, [0.6, 0.75, 0.9, 1.0],
                           range(8, 26, 2), slack=0.02)
        ok = ok and rep.passed and rep.norm_table.converged
        details.append(f"M={rep.norm_table.m_norm:.4f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _verdict(5, ok, f"all t in {{0.6,0.75,0.9,1.0}} bounded, "
                    f"{', '.join(details)}, {dt:.1f}s")
    assert ok


def test_criterion_06_heat_flow():
    t0 = time.perf_counter()
    ctx = build_context(random_phase(1, 8), 0.9)
    b = plane_wave_sum(
        [(1.0, np.array([0.8])), (0.5j, np.array([0.2 - 0.6j]))], n=1
    )
    rng = np.random.default_rng(6)
    Xs = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    semi_pw = rel_dev(
        eval_symbol(heat_flow(ctx, heat_flow(ctx, b, 0.3), 0.45), Xs),
        eval_symbol(heat_flow(ctx, b, 0.75), Xs),
    )
    ex = build_context(fock_phase(1, 1.0), 1.0)
    Xq = np.array([[0.3 + 0.2j], [-0.8 + 0.1j]])
    semi_quad = rel_dev(
        eval_symbol(
            heat_flow_quadrature(
                ex, heat_flow_quadrature(ex, cosine_symbol(1.0), 0.25,
                                         order=40),
                0.25, order=40
            ),
            Xq,
        ),
        eval_symbol(heat_flow(ex, cosine_symbol(1.0), 0.5), Xq),
    )
    mass = 0.0
    agree = 0.0
    bb = plane_wave_sum(
        [(0.5, np.array([1.0])), (0.5, np.array([-1.0])),
         (0.3 - 0.1j, np.array([0.4 + 0.2j]))], n=1
    )
    Xg = rng.standard_normal((15, 1)) + 0.5j * rng.standard_normal((15, 1))
    for h in (1.0, 0.1):
        c = build_context(fock_phase(1, 1.0), h)
        mass = max(mass, rel_dev(
            eval_symbol(heat_flow_quadrature(c, constant_symbol(1.0), 0.7,
                                             order=40), Xq),
            np.ones(2),
        ))
        for t in (0.25, 0.5, 1.0):
            agree = max(agree, rel_dev(
                eval_symbol(heat_flow_quadrature(c, bb, t, order=40), Xg),
                eval_symbol(heat_flow(c, bb, t), Xg),
            ))
    dt = time.perf_counter() - t0
    ok = (semi_pw < 5e-14 and semi_quad < 1e-8 and mass < 1e-10
          and agree < 1e-8 and dt < 60.0)
    _verdict(
        6,
        ok,
        f"semigroup pw {semi_pw:.2e}, quad {semi_quad:.2e}, mass "
        f"{mass:.2e}, closed-vs-quad {agree:.2e}, {dt:.1f}s",
    )
    assert ok


def test_criterion_07_l1_diagnostic_converges():
    t0 = time.perf_counter()
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    b = constant_symbol(1.0)
    target = 2.0 * np.pi
    devs = []
    for step in (1.0, 0.5, 0.25):
        lam = complex_box(-8.0, 8.0, step, 1)
        est = sw_l1(sw_diagnostic(ctx, b, lam), step, 1)
        devs.append(abs(est - target) / target)
    dt = time.perf_counter() - t0
    ok = devs[-1] < 0.01 and all(
        b2 <= a2 + 1e-12 for a2, b2 in zip(devs, devs[1:])
    ) and dt < 60.0
    _verdict(
        7,
        ok,
        f"L1 rel devs {['%.2e' % d for d in devs]} (final tol 1e-2), "
        f"{dt:.1f}s",
    )
    assert ok


def test_criterion_08_deformation_scaling():
    t0 = time.perf_counter()
    res = deformation_sweep(
        fock_phase(1, 1.0), cosine_symbol(1.0), sine_symbol(1.0),
        [0.4, 0.28, 0.2, 0.14, 0.1], 20
    )
    trunc = enumerate_multiindices(1, 14)
    degen = 0.0
    for h in (0.4, 0.1):
        ctx = build_context(fock_phase(1, 1.0), h)
        r1c, r2c = deformation_residuals(
            ctx, constant_symbol(2.0), cosine_symbol(1.0), trunc
        )
        _, r2s = deformation_residuals(
            ctx, cosine_symbol(1.0), cosine_symbol(1.0), trunc
        )
        degen = max(degen, r1c, r2c, r2s)
    dt = time.perf_counter() - t0
    clauses = (
        ("r1 slope in [1.8, 2.3]", 1.8 <= res.slope1 <= 2.3,
         f"{res.slope1:.3f}"),
        ("r2 slope in [1.8, 2.3]", 1.8 <= res.slope2 <= 2.3,
         f"{res.slope2:.3f}"),
        ("degenerate residuals < 1e-8", degen < 1e-8, f"{degen:.2e}"),
        ("runtime < 600s", dt < 600.0, f"{dt:.1f}s"),
    )
    ok = all(c[1] for c in clauses)
    detail = "; ".join(
        f"{name}: {'ok' if good else 'FAILED'} ({val})"
        for name, good, val in clauses
    )
    _verdict(8, ok, detail)
    assert ok, detail


def test_criterion_09_egorov_identity():
    t0 = time.perf_counter()
    X = complex_box(-1.0, 1.0, 1.0, 1)
    symbols = (
        plane_wave_sum([(1.0, np.array([1.0]))], n=1),
        plane_wave_sum([(1.0, np.array([0.5 + 0.3j]))], n=1),
        plane_wave_sum(
            [(0.7, np.array([1.0])), (0.3, np.array([-1.0]))], n=1
        ),
    )
    gaussians = (
        GaussianTestFn(y0=np.array([0.0]), sigma=1.0, p0=np.array([0.0])),
        GaussianTestFn(y0=np.array([0.4]), sigma=0.8, p0=np.array([0.6]),
                       amp=0.9 + 0.4j),
    )
    worst = 0.0
    for phase in (fock_phase(1, 1.0), heat_phase(1)):
        ctx = build_context(phase, 1.0)
        worst = max(worst, float(np.max(
            egorov_guillemin_check(ctx, symbols, gaussians, X)
        )))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 300.0
    _verdict(9, ok, f"max rel err {worst:.2e} over 12 combinations "
                    f"(tol 1e-6), {dt:.1f}s")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phase": {"preset": "fock", "beta": 1.0},
                               "h": 1.0}))
    same = True
    for suite in ("gram", "deformation"):
        blobs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{suite}-t{threads}"
            res = invoke(
                ["verify", suite, "--config", str(cfg), "--out", str(out),
                 "--threads", threads],
            )
            assert res.exit_code == 0, res.output
            blobs.append((out / f"{suite}.csv").read_bytes())
        same = same and (blobs[0] == blobs[1])
    _verdict(10, same, "gram and deformation CSVs byte-identical across "
                       "--threads 1/3")
    assert same
