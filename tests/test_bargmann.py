"""Transform, adjoint, projector and the translation-operator round trips.

Real-line integrals use plain trapezoid sums on wide fine grids; the
integrands decay like Gaussians, so those references are good far beyond
the asserted tolerances.
"""

import numpy as np
import pytest

from conftest import rel_dev

import btlab.bargmann
from btlab.bargmann import (
    GaussianTestFn,
    bargmann_adjoint_apply,
    bargmann_transform_weighted,
    egorov_guillemin_check,
    gaussian_transform_weighted,
    project_coeffs,
    projector_apply_weighted,
    real_weyl_planewave_apply,
)
from btlab.basis import HSpaceVector, enumerate_multiindices, u_alpha_eval
from btlab.errors import InvalidConfig, UnsupportedSymbol
from btlab.geometry import (
    build_context,
    fock_phase,
    heat_phase,
    phi_weight,
    random_phase,
)
from btlab.heat import complex_box, heat_flow
from btlab.quadrature import QuadratureRule, gauss_hermite_rule
from btlab.symbols import (
    CallableSymbol,
    guillemin_symbol,
    plane_wave_sum,
    wirtinger_fd,
)


def _gauss():
    return GaussianTestFn(
        y0=np.array([0.3]), sigma=1.1, p0=np.array([0.4]), amp=0.9 - 0.5j
    )


def test_gaussian_test_fn_basics():
    u = _gauss()
    y = np.linspace(-12.0, 12.0, 4001)
    ref = np.trapezoid(np.abs(u(y[:, None])), y)
    assert abs(u.l1_norm() - ref) < 1e-10
    with pytest.raises(ValueError):
        GaussianTestFn(y0=np.array([0.0]), sigma=-1.0, p0=np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianTestFn(y0=np.array([0.0, 1.0]), sigma=1.0, p0=np.array([0.0]))


def test_transform_isometry(rule60):
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    u = _gauss()
    v = GaussianTestFn(
        y0=np.array([-0.5]), sigma=0.9, p0=np.array([-1.1]), amp=0.7 + 0.2j
    )
    trunc = enumerate_multiindices(1, 24)
    uw = lambda X: bargmann_transform_weighted(ctx, u, X, rule60)
    vw = lambda X: bargmann_transform_weighted(ctx, v, X, rule60)
    y = np.linspace(-12.0, 12.0, 4001)
    uy = u(y[:, None])
    vy = v(y[:, None])
    ref_uu = np.trapezoid(uy * np.conj(uy), y)
    ref_uv = np.trapezoid(uy * np.conj(vy), y)
    # Parseval: inner products from the basis coefficients
    cu = project_coeffs(ctx, uw, trunc, rule60).coeffs
    cv = project_coeffs(ctx, vw, trunc, rule60).coeffs
    got_uu = np.sum(cu * np.conj(cu))
    got_uv = np.sum(cu * np.conj(cv))
    assert abs(got_uu - ref_uu) < 1e-8
    assert abs(got_uv - ref_uv) < 1e-8


def test_transform_adjoint_pairing(rule60):
    """<Tu, u_beta> computed on the complex side equals <u, T* u_beta>
    computed on the real line."""
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    u = _gauss()
    trunc = enumerate_multiindices(1, 8)
    uw = lambda X: bargmann_transform_weighted(ctx, u, X, rule60)
    coeffs = project_coeffs(ctx, uw, trunc, rule60).coeffs
    y = np.linspace(-12.0, 12.0, 4001)
    uy = u(y[:, None])
    vecs = [HSpaceVector(ctx=ctx, trunc=trunc, coeffs=e)
            for e in np.eye(len(trunc), dtype=complex)[:4]]
    stars = bargmann_adjoint_apply(ctx, vecs, y[:, None], rule60)
    for k, star in enumerate(stars):
        ref = np.trapezoid(uy * np.conj(star), y)
        assert abs(coeffs[k] - ref) < 1e-8


def test_adjoint_images_orthonormal(rule60):
    """Round trip T T* = identity, read as the L2 Gram of the pulled-back
    basis: <T*u_a, T*u_b> = <u_a, u_b>.  At the model weight these images
    are Hermite functions, so this doubles as a classical sanity check."""
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    trunc = enumerate_multiindices(1, 5)
    y = np.linspace(-12.0, 12.0, 4001)
    imgs = bargmann_adjoint_apply(
        ctx,
        [HSpaceVector(ctx=ctx, trunc=trunc, coeffs=e)
         for e in np.eye(len(trunc), dtype=complex)],
        y[:, None], rule60,
    )
    for a in range(len(trunc)):
        for b in range(len(trunc)):
            val = np.trapezoid(imgs[a] * np.conj(imgs[b]), y)
            ref = 1.0 if a == b else 0.0
            assert abs(val - ref) < 1e-8


def test_weighted_transform_bounded_by_l1(rule60):
    ctx = build_context(fock_phase(1, 1.0), 0.5)
    u = _gauss()
    grid = np.linspace(-3.0, 3.0, 25)
    X = (grid[:, None] + 1j * grid[None, :]).ravel()[:, None]
    vals = np.abs(bargmann_transform_weighted(ctx, u, X, rule60))
    bound = ctx.Cphi * ctx.h ** (-0.75) * u.l1_norm()
    assert np.max(vals) <= bound
    # frozen peak value; catches silent prefactor drift
    assert 0.95 < np.max(vals) < 1.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("phase,h", [
    (fock_phase, 1.0),
    (heat_phase, 0.5),
    (lambda n: random_phase(n, 7), 0.5),
    (lambda n: random_phase(n, 7), 1.0),
], ids=["fock", "heat", "seed7-h0.5", "seed7-h1"])
def test_gaussian_transform_closed_form_matches_quadrature(rule80, n, phase,
                                                           h):
    ctx = build_context(phase(n), h)
    X = complex_box(-1.0, 1.0, 0.5 if n == 1 else 1.0, n)
    probes = (
        GaussianTestFn(y0=np.zeros(n), sigma=1.0, p0=np.zeros(n)),
        GaussianTestFn(y0=np.full(n, 0.4), sigma=0.8, p0=np.full(n, 0.6),
                       amp=0.9 + 0.4j),
        GaussianTestFn(y0=np.linspace(-0.5, 0.3, n), sigma=1.3,
                       p0=np.linspace(0.7, -0.2, n), amp=-0.3 + 1.1j),
    )
    for u in probes:
        got = gaussian_transform_weighted(ctx, u, X)
        ref = bargmann_transform_weighted(ctx, u, X, rule80)
        assert got.shape == X.shape[:-1]
        assert np.max(np.abs(got - ref)) < 1e-12
    grid = np.stack([X, np.conj(X)])
    batched = gaussian_transform_weighted(ctx, probes[2], grid)
    assert batched.shape == grid.shape[:-1]
    assert np.max(np.abs(batched[0] - got)) < 1e-14


def test_transform_image_is_holomorphic(rule60):
    ctx = build_context(fock_phase(1, 1.0), 0.5)
    u = _gauss()
    f = lambda X: bargmann_transform_weighted(ctx, u, X, rule60) * np.exp(
        phi_weight(ctx, X) / ctx.h
    )
    dX, dXb = wirtinger_fd(f, np.array([0.4 - 0.3j]), 1e-5)
    assert abs(dXb[0]) / abs(dX[0]) < 1e-8


def test_projector_fixes_basis_vectors(rule60):
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    alpha = (3,)

    def u3w(X):
        return u_alpha_eval(ctx, alpha, X) * np.exp(-phi_weight(ctx, X) / ctx.h)

    X = np.array([[0.5 + 0.2j], [-0.3 - 0.8j], [1.2 + 0.0j]])
    got = projector_apply_weighted(ctx, u3w, X, rule60)
    assert rel_dev(got, u3w(X)) < 1e-10


def test_real_weyl_closed_form_limits():
    h = 0.7
    u = _gauss()
    x = np.array([[0.25], [-1.1]])
    # q = 0: pure modulation
    got = real_weyl_planewave_apply(h, np.array([0.8]), np.array([0.0]), u, x)
    ref = np.exp(1j * 0.8 * x[:, 0]) * u(x)
    assert rel_dev(got, ref) < 1e-14
    # p = 0: pure shift
    got = real_weyl_planewave_apply(h, np.array([0.0]), np.array([-0.6]), u, x)
    assert rel_dev(got, u(x - 0.6 * h)) < 1e-14
    with pytest.raises(UnsupportedSymbol):
        real_weyl_planewave_apply(
            h, np.array([0.8]), np.array([0.0]), lambda y: y, x
        )


def test_real_weyl_against_oscillatory_integral():
    """Direct double trapezoid of the quantization integral; the inner
    Gaussian makes the frequency integrand decay fast enough for the
    outer sum to converge spectrally."""
    h = 0.7
    u = _gauss()
    p = np.array([0.8])
    q = np.array([-0.6])
    x0 = np.array([0.25])
    closed = complex(real_weyl_planewave_apply(h, p, q, u, x0))
    ys = np.linspace(-12.0, 12.0, 2001)
    xis = np.linspace(-14.0, 14.0, 2001)
    gy = np.exp(1j * (x0[0] + ys) * p[0] / 2.0) * u(ys[:, None])
    inner = np.trapezoid(
        gy[None, :] * np.exp(-1j * np.outer(xis, ys) / h), ys, axis=1
    )
    osc = np.trapezoid(
        np.exp(1j * x0[0] * xis / h + 1j * q[0] * xis) * inner, xis
    ) / (2 * np.pi * h)
    assert abs(closed - osc) < 1e-10


def test_egorov_identity_single_combination(rule60):
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    b = plane_wave_sum([(1.0, np.array([0.5 + 0.3j]))], n=1)
    u = GaussianTestFn(
        y0=np.array([0.4]), sigma=0.8, p0=np.array([0.6]), amp=0.9 + 0.4j
    )
    X = complex_box(-1.0, 1.0, 1.0, 1)
    worst = egorov_guillemin_check(ctx, [b], [u], X, rule60)
    assert worst.shape == (1, 1)
    assert worst[0, 0] < 1e-6
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(
            ctx, [CallableSymbol(n=1, func=lambda X: X[..., 0])], [u], X,
            rule60
        )


def _egorov_per_pair(ctx, b, u, X, rule):
    """One (symbol, Gaussian) pair the unbatched way: the projector with the
    symbol under the integral, applied to the closed-form transform on its
    own nodes."""
    freqs = guillemin_symbol(
        ctx, heat_flow(ctx, b, 0.5)
    ).cotangent_frequencies()

    def gu(y):
        out = np.zeros(np.asarray(y).shape[:-1], dtype=complex)
        for c, p, q in freqs:
            out = out + c * real_weyl_planewave_apply(ctx.h, p, q, u, y)
        return out

    worst = 0.0
    for Xp in X.reshape(-1, ctx.n):
        lhs = complex(projector_apply_weighted(
            ctx, lambda Y: gaussian_transform_weighted(ctx, u, Y), Xp, rule,
            symbol=b))
        rhs = complex(bargmann_transform_weighted(ctx, gu, Xp, rule))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def test_egorov_batched_equals_per_pair_bits():
    """Sharing the projector kernel across pairs must not move a single
    bit: the reference builds it again for every pair and applies it with
    the symbol under the integral."""
    ctx = build_context(random_phase(1, 3), 0.5)
    rule = gauss_hermite_rule(28)
    X = np.array([[0.0], [0.5 + 0.2j], [-0.7 + 0.4j], [0.3 - 0.9j]])
    symbols = (
        plane_wave_sum([(1.0, np.array([1.0]))], n=1),
        plane_wave_sum([(0.6 - 0.2j, np.array([0.5 + 0.3j]))], n=1),
        plane_wave_sum(
            [(0.7, np.array([1.0])), (0.3, np.array([-0.8 + 0.1j]))], n=1
        ),
    )
    gaussians = (
        _gauss(),
        GaussianTestFn(y0=np.array([-0.4]), sigma=0.8, p0=np.array([0.6]),
                       amp=0.9 + 0.4j),
    )
    got = egorov_guillemin_check(ctx, symbols, gaussians, X, rule)
    ref = np.array([[_egorov_per_pair(ctx, b, u, X, rule) for u in gaussians]
                    for b in symbols])
    assert got.shape == (3, 2)
    assert np.array_equal(got, ref)


def test_egorov_refuses_any_callable_before_quadrature(rule60, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the symbol check")

    monkeypatch.setattr(btlab.bargmann, "_projector_kernel", no_quadrature)
    monkeypatch.setattr(btlab.bargmann, "_transform_kernel", no_quadrature)
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    wave = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    bad = CallableSymbol(n=1, func=lambda X: X[..., 0])
    X = complex_box(-1.0, 1.0, 1.0, 1)
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(ctx, [wave, wave, bad], [_gauss()], X, rule60)


def test_egorov_refuses_non_gaussian_probe_before_quadrature(rule60,
                                                             monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the probe check")

    monkeypatch.setattr(btlab.bargmann, "_projector_kernel", no_quadrature)
    monkeypatch.setattr(btlab.bargmann, "_transform_kernel", no_quadrature)
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    wave = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    X = complex_box(-1.0, 1.0, 1.0, 1)
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(ctx, [wave], [_gauss(), _gauss().__call__],
                               X, rule60)


class _KernelReached(Exception):
    pass


@pytest.mark.parametrize("n,order,admitted", [
    (1, 1024, True), (1, 1025, False), (2, 32, True), (2, 33, False),
])
def test_egorov_kernel_cap(monkeypatch, n, order, admitted):
    """The cap counts the order^(2n) projector kernel per X point; the rule
    is a bare order, since nothing below the cap is computed here."""
    def reached(*args):
        raise _KernelReached

    monkeypatch.setattr(btlab.bargmann, "_projector_kernel", reached)
    ctx = build_context(fock_phase(n, 1.0), 1.0)
    rule = QuadratureRule(order=order, nodes=np.empty(0), weights=np.empty(0))
    wave = plane_wave_sum([(1.0, np.ones(n))], n=n)
    u = GaussianTestFn(y0=np.zeros(n), sigma=1.0, p0=np.zeros(n))
    with pytest.raises(_KernelReached if admitted else InvalidConfig):
        egorov_guillemin_check(ctx, [wave], [u], np.zeros((1, n)), rule)
