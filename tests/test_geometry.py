"""Closed forms for the two worked examples and the admissibility guards."""

import numpy as np
import pytest

from conftest import rel_dev

from btlab.errors import (
    IllConditionedPhase,
    NonPositiveCI,
    NonSymmetricPhase,
    SingularB,
)
from btlab.geometry import (
    PhaseMatrices,
    build_context,
    fock_phase,
    freq_image,
    freq_pairing,
    heat_phase,
    kappa_T,
    kappa_affine,
    phase_phi,
    phi_weight,
    psi,
    random_phase,
    theta_on_lambda,
)


def _cpoints(rng, npts, n, scale=3.0):
    return scale * (
        (rng.random((npts, n)) - 0.5) + 1j * (rng.random((npts, n)) - 0.5)
    )


def test_fock_example_closed_forms():
    rng = np.random.default_rng(11)
    for beta in (0.5, 1.0, 2.0):
        ctx = build_context(fock_phase(1, beta), 0.7)
        X = _cpoints(rng, 100, 1)
        Y = _cpoints(rng, 100, 1)
        assert rel_dev(phi_weight(ctx, X), beta * np.abs(X[:, 0]) ** 2 / 2) < 1e-12
        assert rel_dev(psi(ctx, X, Y), beta * X[:, 0] * Y[:, 0] / 2) < 1e-12
        assert rel_dev(ctx.PhiXX, np.zeros((1, 1))) < 1e-12
        assert rel_dev(ctx.PhiXXbar, np.array([[beta / 2]])) < 1e-12
        x = 3.0 * (rng.random((100, 1)) - 0.5)
        xi = 3.0 * (rng.random((100, 1)) - 0.5)
        Xk, Th = kappa_T(ctx, x, xi)
        assert rel_dev(Xk, x - 1j * xi / (2 * beta)) < 1e-12
        assert rel_dev(Th, -1j * beta * x + xi / 2) < 1e-12


def test_heat_example_closed_forms():
    rng = np.random.default_rng(12)
    ctx = build_context(heat_phase(1), 0.7)
    X = _cpoints(rng, 100, 1)
    Y = _cpoints(rng, 100, 1)
    assert rel_dev(phi_weight(ctx, X), np.imag(X[:, 0]) ** 2 / 2) < 1e-12
    assert rel_dev(psi(ctx, X, Y), -((X[:, 0] - Y[:, 0]) ** 2) / 8) < 1e-12
    assert rel_dev(ctx.PhiXX, np.array([[-0.25]])) < 1e-12
    assert rel_dev(ctx.PhiXXbar, np.array([[0.25]])) < 1e-12
    x = 3.0 * (rng.random((100, 1)) - 0.5)
    xi = 3.0 * (rng.random((100, 1)) - 0.5)
    Xk, Th = kappa_T(ctx, x, xi)
    assert rel_dev(Xk, x - 1j * xi) < 1e-12
    assert rel_dev(Th, xi + 0j) < 1e-12


def test_polarization_diagonal_is_weight():
    for seed in range(4):
        for n in (1, 2):
            ctx = build_context(random_phase(n, seed), 0.5)
            rng = np.random.default_rng(100 + seed)
            X = _cpoints(rng, 40, n)
            assert rel_dev(psi(ctx, X, X.conj()), phi_weight(ctx, X)) < 1e-12


def test_kappa_graph_relation():
    """Real phase-space points land on the graph section of the weight."""
    for ctx in (
        build_context(fock_phase(1, 1.0), 1.0),
        build_context(heat_phase(1), 1.0),
        build_context(random_phase(2, 3), 0.8),
    ):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, ctx.n))
        xi = rng.standard_normal((50, ctx.n))
        X, Th = kappa_T(ctx, x, xi)
        assert rel_dev(Th, theta_on_lambda(ctx, X)) < 1e-12


def test_kappa_affine_consistency(ex1):
    P, Q = kappa_affine(ex1)
    x = np.array([[0.3]])
    xi = np.array([[-1.2]])
    X, _ = kappa_T(ex1, x, xi)
    assert rel_dev(X, x @ P.T + xi @ Q.T) < 1e-14


def test_exponent_square_completion():
    """Re{i phi(X, y) - Phi(X)} = -|C_I^{1/2}(y - y_c)|^2 / 2 with the
    recentering y_c = -C_I^{-1} Im(B^T X); this is what keeps every
    transform integrand bounded by one."""
    for seed, n in ((0, 1), (5, 2)):
        ctx = build_context(random_phase(n, seed), 0.6)
        rng = np.random.default_rng(20 + seed)
        X = _cpoints(rng, 30, n)
        y = 4.0 * (rng.random((30, n)) - 0.5)
        yc = -np.imag(X @ ctx.phase.B) @ ctx.CIinv.T
        lhs = np.real(1j * phase_phi(ctx, X, y)) - phi_weight(ctx, X)
        ew, ev = np.linalg.eigh(ctx.CI)
        root = (ev * np.sqrt(ew)) @ ev.T
        rhs = -0.5 * np.sum(((y - yc) @ root.T) ** 2, axis=-1)
        assert rel_dev(lhs, rhs) < 1e-12


def test_normalization_constants(ex1):
    assert abs(ex1.Cphi - 0.5039588710767615) < 1e-15
    assert abs(ex1.CPhi - 1.0 / np.pi) < 1e-15


def test_r_factorization():
    for seed in range(5):
        for n in (1, 2):
            ctx = build_context(random_phase(n, seed), 1.0)
            dev = np.max(
                np.abs(ctx.R.conj().T @ ctx.R - ctx.PhiXXbar.conj())
            )
            assert dev < 1e-12
            ew = np.linalg.eigvalsh((ctx.PhiXXbar + ctx.PhiXXbar.conj().T) / 2)
            assert ew.min() > 0


def test_freq_image_fock_scaling():
    lam = np.array([[0.6 + 0.8j]])
    for beta in (0.5, 1.0, 2.0):
        ctx = build_context(fock_phase(1, beta), 1.0)
        got = np.abs(freq_image(ctx, lam)[0, 0]) ** 2
        assert abs(got - 2.0 * abs(lam[0, 0]) ** 2 / beta) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_map_matches_inverse_hessian_forms(n):
    """The reduced-frame forms equal the inverse-Hessian forms they
    replace: the pairing <lam, (Phi''_XbarX)^-1 conj(mu)>, the
    composition-law shift (ih/4) (Phi''_XXbar)^-T conj(lam), and
    G = (Phi''_XXbar)^-1 = conj(R^-1) R^-T of the cotangent pull-back."""
    ctx = build_context(random_phase(n, 7), 0.7)
    rng = np.random.default_rng(n)
    lam, mu = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))

    def close(got, ref):
        scale = max(np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    Hinv = np.linalg.inv(ctx.PhiXXbar)
    close(freq_pairing(ctx, lam, mu), lam @ Hinv.conj() @ np.conj(mu))
    close(freq_pairing(ctx, lam, lam),
          np.sum(np.abs(freq_image(ctx, lam)) ** 2))
    shift = (0.25j * ctx.h) * (ctx.Rinv @ np.conj(freq_image(ctx, lam)))
    close(shift, (0.25j * ctx.h) * Hinv.T @ np.conj(lam))
    close(np.conj(ctx.Rinv) @ ctx.Rinv.T, Hinv)
    # batched frequencies map row by row
    both = np.stack([lam, mu])
    close(freq_image(ctx, both)[1], freq_image(ctx, mu))
    close(freq_pairing(ctx, both, mu), np.array(
        [freq_pairing(ctx, lam, mu), freq_pairing(ctx, mu, mu)]))


def test_rejects_nonsymmetric_blocks():
    eye = np.eye(2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]]) * 1j
    with pytest.raises(NonSymmetricPhase):
        build_context(PhaseMatrices(2, A, -2j * eye, 2j * eye), 1.0)
    Cbad = np.array([[2.0, 0.5], [0.0, 2.0]]) * 1j
    with pytest.raises(NonSymmetricPhase):
        build_context(PhaseMatrices(2, 1j * eye, -2j * eye, Cbad), 1.0)


def test_rejects_singular_b():
    eye = np.eye(1)
    with pytest.raises(SingularB):
        build_context(PhaseMatrices(1, 1j * eye, 0.0 * eye, 2j * eye), 1.0)


def test_rejects_nonpositive_ci():
    eye = np.eye(1)
    # C real symmetric, so Im C = 0
    with pytest.raises(NonPositiveCI):
        build_context(PhaseMatrices(1, 1j * eye, -2j * eye, 1.0 * eye), 1.0)


def test_rejects_ill_conditioned_ci():
    A = np.zeros((2, 2))
    B = -2j * np.eye(2)
    C = 1j * np.diag([1.0e3, 1.1e-10])
    with pytest.raises(IllConditionedPhase):
        build_context(PhaseMatrices(2, A, B, C), 1.0)


def test_h_domain():
    ph = fock_phase(1, 1.0)
    with pytest.raises(ValueError):
        build_context(ph, 0.0)
    with pytest.raises(ValueError):
        build_context(ph, 1.5)
