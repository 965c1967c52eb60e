"""Plane-wave algebra and the bilinear differential forms.

The exact plane-wave formulas are cross-checked against the generic
finite-difference fallback at an asymmetric random phase in two complex
variables; the two code paths share nothing but the context object.
"""

import numpy as np
import pytest

from conftest import rel_dev

from btlab.errors import NonFiniteSample, UnsupportedSymbol
from btlab.geometry import (
    build_context,
    fock_phase,
    freq_image,
    kappa_T,
    random_phase,
    theta_on_lambda,
)
from btlab.symbols import (
    CallableSymbol,
    PlaneWaveSum,
    conjugate_symbol,
    constant_symbol,
    cosine_symbol,
    eval_symbol,
    guillemin_symbol,
    is_real_valued,
    laplace,
    modulate,
    multiply,
    plane_wave_sum,
    poisson,
    polarize,
    q_form,
    sine_symbol,
    translate,
    wirtinger_fd,
)


def _pair(h=0.7):
    ctx = build_context(random_phase(2, 11), h)
    la = np.array([0.8 + 0.3j, -0.4 + 0.1j])
    mu = np.array([-0.2 + 0.5j, 0.6 - 0.7j])
    a = PlaneWaveSum(n=2, terms=((0.9 - 0.2j, la),))
    b = PlaneWaveSum(n=2, terms=((0.4 + 0.6j, mu),))
    return ctx, a, b


X0 = np.array([0.3 - 0.2j, -0.5 + 0.4j])


def test_canonicalization_merges_and_sorts():
    lam = np.array([1.0 + 0.5j])
    b = plane_wave_sum([(0.3, lam), (0.2, -lam), (0.4, lam)], n=1)
    assert len(b.terms) == 2
    coeffs = {
        complex(l[0]): c for c, l in b.terms
    }
    assert abs(coeffs[complex(lam[0])] - 0.7) < 1e-15
    assert abs(coeffs[complex(-lam[0])] - 0.2) < 1e-15
    # negligible coefficients disappear entirely
    tiny = plane_wave_sum([(1.0, lam), (1e-16, -lam)], n=1)
    assert len(tiny.terms) == 1


def test_trigonometric_builders():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))
    c = cosine_symbol(1.0)
    s = sine_symbol(1.0)
    assert rel_dev(eval_symbol(c, X), np.cos(np.real(X[:, 0]))) < 1e-14
    assert rel_dev(eval_symbol(s, X), np.sin(np.real(X[:, 0]))) < 1e-14
    one = constant_symbol(2.5)
    assert rel_dev(eval_symbol(one, X), 2.5 * np.ones(30)) < 1e-15


def test_multiply_is_pointwise():
    ctx, a, b = _pair()
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    ab = multiply(a, b)
    assert isinstance(ab, PlaneWaveSum)
    assert rel_dev(
        eval_symbol(ab, X), eval_symbol(a, X) * eval_symbol(b, X)
    ) < 1e-14


def test_conjugate_and_reality():
    ctx, a, _ = _pair()
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    ac = conjugate_symbol(a)
    assert rel_dev(eval_symbol(ac, X), np.conj(eval_symbol(a, X))) < 1e-14
    assert is_real_valued(cosine_symbol(0.7))
    assert is_real_valued(multiply(a, conjugate_symbol(a)))
    assert not is_real_valued(a)


def test_modulate_translate_laws():
    _, a, _ = _pair()
    lam = np.array([0.4 - 0.9j, 0.2 + 0.3j])
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))
    got = eval_symbol(modulate(a, lam), X)
    ref = np.exp(1j * np.real(X @ lam)) * eval_symbol(a, X)
    assert rel_dev(got, ref) < 1e-14
    got = eval_symbol(translate(a, lam), X)
    assert rel_dev(got, eval_symbol(a, X + lam)) < 1e-14


def test_wirtinger_fd_on_polynomial():
    f = lambda X: X[..., 0] ** 2 + 3.0 * np.conj(X[..., 0])
    Xp = np.array([0.7 - 0.4j])
    dX, dXb = wirtinger_fd(f, Xp, 1e-5)
    assert abs(dX[0] - 2 * Xp[0]) < 1e-9
    assert abs(dXb[0] - 3.0) < 1e-9


def test_q_form_against_finite_differences():
    ctx, a, b = _pair()
    fa = lambda X: eval_symbol(a, X)
    fb = lambda X: eval_symbol(b, X)
    ac = CallableSymbol(n=2, func=fa, fd_step=1e-4)
    bc = CallableSymbol(n=2, func=fb, fd_step=1e-4)
    exact = complex(eval_symbol(q_form(ctx, a, b), X0))
    assert abs(exact - (-0.367707147381422 + 0.180795620442811j)) < 1e-12
    fd = complex(q_form(ctx, ac, bc).func(X0))
    assert abs(exact - fd) < 1e-6


def test_laplace_against_finite_differences():
    ctx, _, b = _pair()
    bc = CallableSymbol(n=2, func=lambda X: eval_symbol(b, X), fd_step=1e-4)
    exact = complex(eval_symbol(laplace(ctx, b), X0))
    assert abs(exact - (-0.160888779460396 - 0.25211585825775j)) < 1e-12
    fd = complex(laplace(ctx, bc).func(X0))
    assert abs(exact - fd) < 1e-6


def test_poisson_against_finite_differences():
    ctx, a, b = _pair()
    ac = CallableSymbol(n=2, func=lambda X: eval_symbol(a, X), fd_step=1e-4)
    bc = CallableSymbol(n=2, func=lambda X: eval_symbol(b, X), fd_step=1e-4)
    exact = complex(eval_symbol(poisson(ctx, a, b), X0))
    assert abs(exact - (-0.260742477588457 - 0.769582877725041j)) < 1e-12
    fd = complex(poisson(ctx, ac, bc).func(X0))
    assert abs(exact - fd) < 1e-6


def test_poisson_antisymmetry():
    ctx, a, b = _pair()
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    lhs = eval_symbol(poisson(ctx, a, b), X)
    rhs = eval_symbol(poisson(ctx, b, a), X)
    assert rel_dev(lhs, -rhs) < 1e-13


def test_laplace_eigenvalue_on_plane_wave(ex1):
    lam = np.array([0.6 + 0.8j])
    b = PlaneWaveSum(n=1, terms=((1.0, lam),))
    lb = laplace(ex1, b)
    ev = -0.125 * np.sum(np.abs(freq_image(ex1, lam)) ** 2)
    assert len(lb.terms) == 1
    c, mu = lb.terms[0]
    assert np.allclose(mu, lam)
    assert abs(c - ev) < 1e-14


def test_fd_requires_step():
    ctx, a, _ = _pair()
    bare = CallableSymbol(n=2, func=lambda X: eval_symbol(a, X))
    with pytest.raises(UnsupportedSymbol):
        q_form(ctx, bare, bare)
    with pytest.raises(UnsupportedSymbol):
        laplace(ctx, bare)


def test_nonfinite_callable_rejected():
    bad = CallableSymbol(n=1, func=lambda X: np.full(X.shape[:-1], np.inf))
    with pytest.raises(NonFiniteSample):
        eval_symbol(bad, np.array([[0.1 + 0.2j]]))


def test_polarize_diagonal_restriction():
    _, a, b = _pair()
    pol = polarize(b)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    assert rel_dev(pol(X, X.conj()), eval_symbol(b, X)) < 1e-14
    with pytest.raises(UnsupportedSymbol):
        polarize(CallableSymbol(n=2, func=lambda X: eval_symbol(a, X)))


def test_guillemin_graph_restriction():
    ctx, a, b = _pair()
    gs = guillemin_symbol(ctx, b)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    theta = theta_on_lambda(ctx, X)
    assert rel_dev(gs.y_point(X, theta), X.conj()) < 1e-12
    assert rel_dev(gs(X, theta), eval_symbol(b, X)) < 1e-12


def test_cotangent_frequencies_reconstruct_symbol():
    """The rewritten (p, q) data must reproduce the symbol through the
    canonical frame change at real phase-space points."""
    for seed in (3, 11):
        ctx = build_context(random_phase(2, seed), 0.9)
        lam = np.array([0.5 - 0.7j, -0.3 + 0.2j])
        b = PlaneWaveSum(n=2, terms=((1.1 + 0.4j, lam),))
        gs = guillemin_symbol(ctx, b)
        freqs = gs.cotangent_frequencies()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((25, 2))
        xi = rng.standard_normal((25, 2))
        X, _ = kappa_T(ctx, x, xi)
        ref = eval_symbol(b, X)
        got = np.zeros(25, dtype=complex)
        for c, p, q in freqs:
            got = got + c * np.exp(1j * (x @ p + xi @ q))
        assert rel_dev(got, ref) < 1e-12
