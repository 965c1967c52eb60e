"""Transform, projector and the translation-operator round trips.

Real-line integrals use plain trapezoid sums on wide fine grids; the
integrands decay like Gaussians, so those references are good far beyond
the asserted tolerances.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_dev
from reference import (
    egorov_sides_per_term,
    gaussian_transform_weighted,
    real_weyl_planewave_apply,
    toeplitz_apply_weighted,
    u_alpha_eval,
    wirtinger_fd,
)
# the fixture phases: the seeded draw of earlier releases (see reference)
from reference import legacy_random_phase as random_phase

import btlab.bargmann
from btlab.bargmann import (
    GaussianTestFn,
    _egorov_sides,
    _gaussian_transform,
    _weyl_gaussian,
    bargmann_transform_weighted,
    egorov_guillemin_check,
    egorov_points,
    projector_apply_weighted,
)
from btlab.cli import SUITES
from btlab.config import ConfigReader
from btlab.errors import UnsupportedSymbol
from btlab.geometry import (
    build_context,
    fock_phase,
    heat_phase,
    phi_weight,
)
from btlab.heat import complex_box, heat_flow
from btlab.quadrature import gauss_hermite_rule
from btlab.symbols import (
    CallableSymbol,
    cotangent_frequencies,
    plane_wave_sum,
)


def _gauss():
    return GaussianTestFn(
        y0=np.array([0.3]), sigma=1.1, p0=np.array([0.4]), amp=0.9 - 0.5j
    )


def _e1(n, z=1.0):
    lam = np.zeros(n, dtype=complex)
    lam[0] = z
    return lam


def test_gaussian_test_fn_basics():
    with pytest.raises(ValueError):
        GaussianTestFn(y0=np.array([0.0]), sigma=-1.0, p0=np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianTestFn(y0=np.array([0.0, 1.0]), sigma=1.0, p0=np.array([0.0]))


@pytest.mark.parametrize("y0,p0", [([1.0 + 1.0j], [0.0]),
                                   ([1.0], [0.5 - 1e-3j])],
                         ids=["complex-y0", "complex-p0"])
def test_gaussian_test_fn_refuses_complex_parameters(y0, p0):
    """A nonzero imaginary part is refused, not dropped; a complex dtype
    with zero imaginary part is cast (a ComplexWarning fails the suite)."""
    with pytest.raises(ValueError, match="real n-vectors"):
        GaussianTestFn(y0=np.array(y0), sigma=1.0, p0=np.array(p0))
    u = GaussianTestFn(y0=np.array(y0).real + 0j, sigma=1.0,
                       p0=np.array(p0).real + 0j)
    assert u.y0.dtype == u.p0.dtype == float
    assert u.y0[0] == np.real(y0[0]) and u.p0[0] == np.real(p0[0])


def test_transform_isometry():
    """<Tu, Tu> and <Tu, Tv> over the weighted space, as a trapezoid sum of
    the closed-form weighted transforms over the box [-10, 10]^2 in X,
    equal the real-line inner products for four phases; a 0.1% error in
    C_phi is seen."""
    u = _gauss()
    v = GaussianTestFn(
        y0=np.array([-0.5]), sigma=0.9, p0=np.array([-1.1]), amp=0.7 + 0.2j
    )
    y = np.linspace(-12.0, 12.0, 4001)
    uy = u(y[:, None])
    vy = v(y[:, None])
    ref_uu = np.trapezoid(uy * np.conj(uy), y)
    ref_uv = np.trapezoid(uy * np.conj(vy), y)
    grid = np.linspace(-10.0, 10.0, 601)
    X = (grid[:, None] + 1j * grid[None, :]).ravel()[:, None]

    def inner(ctx, f, g):
        vals = (gaussian_transform_weighted(ctx, f, X)
                * np.conj(gaussian_transform_weighted(ctx, g, X)))
        return np.trapezoid(np.trapezoid(vals.reshape(601, 601), grid), grid)

    for phase, h in ((fock_phase(1, 1.0), 1.0), (heat_phase(1), 0.5),
                     (random_phase(1, 7), 0.5), (random_phase(1, 7), 1.0)):
        ctx = build_context(phase, h)
        assert abs(inner(ctx, u, u) - ref_uu) < 1e-12
        assert abs(inner(ctx, u, v) - ref_uv) < 1e-12
        bad = dataclasses.replace(ctx, Cphi=1.001 * ctx.Cphi)
        assert abs(inner(bad, u, u) - ref_uu) > 1e-3


def test_weighted_transform_bounded_by_l1(rule60):
    ctx = build_context(fock_phase(1, 1.0), 0.5)
    u = _gauss()
    grid = np.linspace(-3.0, 3.0, 25)
    X = (grid[:, None] + 1j * grid[None, :]).ravel()[:, None]
    vals = np.abs(bargmann_transform_weighted(ctx, u, X, rule60))
    bound = ctx.Cphi * ctx.h ** (-0.75) * (
        abs(u.amp) * (2.0 * np.pi * u.sigma ** 2) ** (u.n / 2.0))
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
    # complex centre and frequency, against the quadrature of the Weyl
    # action: the Gaussian Weyl images of the terms the Egorov right side
    # sums (complex dtype, real up to rounding, as e^{i Re<X, lam>} is a
    # real plane wave on phase space), and a truly complex (p, q)
    b = plane_wave_sum([(0.7, _e1(n)), (0.3 - 0.2j, _e1(n, -0.8 + 0.1j))],
                       n=n)
    bt = heat_flow(ctx, b, 0.5)
    freqs = list(zip(bt.c, *cotangent_frequencies(ctx, bt.lam)))
    freqs.append((0.6 + 0.2j, np.full(n, 0.5 - 0.3j),
                  np.linspace(-0.4 + 0.2j, 0.3 - 0.1j, n)))
    for c, p, q in freqs:
        for u in probes[1:]:
            got = _gaussian_transform(ctx, X, *_weyl_gaussian(h, c, p, q, u))
            ref = bargmann_transform_weighted(
                ctx, lambda y: c * real_weyl_planewave_apply(h, p, q, u, y),
                X, rule80)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_weyl_image_is_gaussian():
    """The Gaussian Weyl image equals the Weyl action pointwise, on real
    and on complex points, for real and complex (p, q)."""
    h = 0.7
    u = _gauss()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 1))
    for pts in (x, x + 1j * rng.standard_normal((6, 1))):
        for p, q in ((0.8, -0.6), (0.8 - 0.3j, -0.6 + 0.4j), (0.2j, 0.9)):
            p, q = np.array([p]), np.array([q])
            y0, sigma, p0, amp = _weyl_gaussian(h, 1.3 - 0.2j, p, q, u)
            d = pts - y0
            got = amp * np.exp(1j * (pts @ p0)
                               - np.sum(d * d, axis=-1) / (2.0 * sigma ** 2))
            ref = (1.3 - 0.2j) * real_weyl_planewave_apply(h, p, q, u, pts)
            assert rel_dev(got, ref) < 1e-14


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


def test_egorov_identity_single_combination():
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    b = plane_wave_sum([(1.0, np.array([0.5 + 0.3j]))], n=1)
    u = GaussianTestFn(
        y0=np.array([0.4]), sigma=0.8, p0=np.array([0.6]), amp=0.9 + 0.4j
    )
    X = complex_box(-1.0, 1.0, 1.0, 1)
    worst = egorov_guillemin_check(ctx, [b], [u], X)
    assert worst.shape == (1, 1)
    assert worst[0, 0] < 1e-6
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(
            ctx, [CallableSymbol(n=1, func=lambda X: X[..., 0])], [u], X
        )


@pytest.mark.parametrize("h", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("phase", [fock_phase(1), random_phase(1, 7)],
                         ids=["fock", "seed7"])
def test_egorov_points_are_live_for_each_probe(phase, h):
    """Each default probe gets 1 + 4n points around kappa_T of its centre
    (y0, h p0), and on every one of them the left side of every default
    symbol is at least 1e-3 of its largest value there: no point is spent
    where the transform has underflowed.  The box [-1, 1]^2 kept 3 of its
    9 points live on Fock and 1 on seed 7 at h = 1e-4."""
    keys = ConfigReader({"phase": {"preset": "fock"}})
    keys.phase()
    defaults = SUITES["egorov"].params(keys)
    ctx = build_context(phase, h)
    for u in defaults["gaussians"]:
        X = egorov_points(ctx, [u])
        assert X.shape == (5, 1)
        lhs = np.abs(_egorov_sides(ctx, defaults["symbols"], [u], X)[0])
        assert np.all(lhs >= 1e-3 * np.max(lhs, axis=-1, keepdims=True))


def _toeplitz_gap(ctx, b, u, X, rule):
    """Largest deviation of the closed-form Toeplitz action on the weighted
    transform of u from the projector quadrature with b under the
    integral."""
    fw = lambda Y: gaussian_transform_weighted(ctx, u, Y)
    got = toeplitz_apply_weighted(ctx, b, fw, X)
    ref = projector_apply_weighted(ctx, fw, X, rule, symbol=b)
    assert got.shape == X.shape[:-1]
    return rel_dev(got, ref)


def test_toeplitz_apply_matches_projector(rule80):
    """The composition law shifts the kernel's point instead of integrating:
    at n = 1 it agrees with the order-80 projector to rounding, and at
    n = 2 with the order-28 projector to that rule's own error."""
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
    for phase, h in ((fock_phase(1, 1.0), 1.0), (heat_phase(1), 1.0),
                     (random_phase(1, 3), 0.5), (random_phase(1, 7), 1.0)):
        ctx = build_context(phase, h)
        for b in symbols:
            for u in gaussians:
                assert _toeplitz_gap(ctx, b, u, X, rule80) <= 1e-13
    ctx = build_context(random_phase(2, 7), 1.0)
    b = plane_wave_sum([(0.7, np.array([1.0, 0.0])),
                        (0.3, np.array([-1.0, 0.5 + 0.3j]))], n=2)
    u = GaussianTestFn(y0=np.full(2, 0.4), sigma=0.8, p0=np.full(2, 0.6),
                       amp=0.9 + 0.4j)
    X2 = np.array([[0.3 - 0.2j, -0.5 + 0.1j]])
    assert _toeplitz_gap(ctx, b, u, X2, gauss_hermite_rule(28)) <= 1e-8


_z = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 40), h=st.sampled_from([0.5, 1.0]),
       lam=_z.map(lambda z: 2.0 * z), c=_z,
       y0=st.floats(-1.0, 1.0), sigma=st.floats(0.6, 1.5),
       p0=st.floats(-1.0, 1.0), amp=_z)
def test_toeplitz_composition_law_property(rule60, seed, h, lam, c, y0,
                                           sigma, p0, amp):
    """On random admissible phases the closed-form Toeplitz action of a
    plane wave with a random complex frequency equals the order-60
    projector quadrature on a Gaussian's transform."""
    ctx = build_context(random_phase(1, seed), h)
    b = plane_wave_sum([(1.0 + c, np.array([lam]))], n=1)
    u = GaussianTestFn(y0=np.array([y0]), sigma=sigma, p0=np.array([p0]),
                       amp=1.0 + amp)
    X = np.array([[0.0], [0.6 + 0.3j], [-0.4 - 0.8j]])
    assert _toeplitz_gap(ctx, b, u, X, rule60) <= 1e-13


_vec = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 40),
       h=st.sampled_from([0.5, 1.0]),
       terms=st.lists(st.tuples(_z, _z, _z), min_size=1, max_size=3),
       y0=_vec, sigma=st.floats(0.6, 1.5), p0=_vec, amp=_z)
def test_egorov_identity_property(n, seed, h, terms, y0, sigma, p0, amp):
    """On random admissible phases the Egorov identity holds to rounding
    for random plane-wave sums (complex frequencies along the first two
    axes) and Gaussian probes."""
    ctx = build_context(random_phase(n, seed), h)
    b = plane_wave_sum([
        (1.0 + c, 2.0 * np.array([l1, l2, 0.0])[:n]) for c, l1, l2 in terms
    ], n=n)
    u = GaussianTestFn(y0=y0[:n], sigma=sigma, p0=p0[:n], amp=1.0 + amp)
    re, im = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 5, n))
    X = re + 1j * im
    assert np.max(egorov_guillemin_check(ctx, [b], [u], X)) <= 1e-12


@pytest.mark.parametrize("phase, h", [
    (fock_phase(1, 1.0), 1.0), (random_phase(1, 7), 0.5),
    (random_phase(2, 7), 1.0), (random_phase(3, 3), 0.7),
], ids=["fock", "seed7", "seed7-n2", "seed3-n3"])
def test_egorov_sides_match_per_term_transforms(phase, h, monkeypatch):
    """The stacked sides equal the per-term loop to 1e-13 relative, entry
    by entry, for symbols of 1, 1, 2, 0 and 3 terms; each probe costs two
    closed-form transform evaluations, whatever the number of terms."""
    ctx = build_context(phase, h)
    n = ctx.n
    symbols = [
        plane_wave_sum([(1.0, _e1(n))], n=n),
        plane_wave_sum([(1.0, _e1(n, 0.5 + 0.3j))], n=n),
        plane_wave_sum([(0.7, _e1(n)), (0.3, -_e1(n))], n=n),
        plane_wave_sum([], n=n),
        plane_wave_sum([(0.6 - 0.2j, np.linspace(0.4, -0.8, n)),
                        (-0.4j, _e1(n, -0.3 + 0.9j)),
                        (0.5, np.full(n, 0.2 - 0.1j))], n=n),
    ]
    gaussians = [
        GaussianTestFn(y0=np.zeros(n), sigma=1.0, p0=np.zeros(n)),
        GaussianTestFn(y0=np.full(n, 0.4), sigma=0.8, p0=np.full(n, 0.6),
                       amp=0.9 + 0.4j),
        GaussianTestFn(y0=np.linspace(-0.5, 0.3, n), sigma=1.3,
                       p0=np.linspace(0.7, -0.2, n), amp=-0.3 + 1.1j),
    ]
    X = complex_box(-1.0, 1.0, 1.0, n)
    ref = egorov_sides_per_term(ctx, symbols, gaussians, X)
    calls = []
    real = btlab.bargmann._gaussian_transform

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(btlab.bargmann, "_gaussian_transform", counted)
    got = _egorov_sides(ctx, symbols, gaussians, X)
    assert len(calls) == 2 * len(gaussians)
    for side, want in zip(got, ref):
        assert side.shape == want.shape == (5, 3, 9 ** n)
        assert np.all(np.abs(side - want) <= 1e-13 * np.abs(want))
    assert not np.any(got[0][3]) and not np.any(got[1][3])
    zero = egorov_guillemin_check(ctx, symbols[3:4], gaussians, X)
    assert zero.shape == (1, 3) and not np.any(zero)


@pytest.mark.parametrize("phase, h", [
    (fock_phase(1, 1.0), 1.0), (random_phase(2, 7), 1.0),
], ids=["fock", "seed7-n2"])
def test_egorov_rows_equal_single_symbol_checks(phase, h):
    """Each row of the check on several symbols is the check on that
    symbol alone, also when the half-time flow damps one of its terms
    below the drop tolerance of a plane-wave sum (lambda = 40): bit for
    bit at n = 1, to rounding where stacked matrix products round
    differently (n = 2)."""
    ctx = build_context(phase, h)
    n = ctx.n
    symbols = [plane_wave_sum([(1.0, np.zeros(n)), (1.0, _e1(n, 40.0))], n),
               plane_wave_sum([(1.0, _e1(n))], n),
               plane_wave_sum([(0.7, _e1(n)), (0.3, -_e1(n))], n)]
    gaussians = [GaussianTestFn(y0=np.zeros(n), sigma=1.0, p0=np.zeros(n)),
                 GaussianTestFn(y0=np.full(n, 0.4), sigma=0.8,
                                p0=np.full(n, 0.6), amp=0.9 + 0.4j)]
    X = complex_box(-1.0, 1.0, 1.0, n)
    rows = egorov_guillemin_check(ctx, symbols, gaussians, X)
    assert np.max(rows) < 1e-12
    for b, row in zip(symbols, rows, strict=True):
        alone = egorov_guillemin_check(ctx, [b], gaussians, X)[0]
        assert np.all(np.abs(row - alone) <= 1e-15), (row, alone)
        assert n > 1 or np.array_equal(row, alone)


def test_egorov_refuses_any_callable_before_quadrature(monkeypatch):
    def no_transform(*args):
        raise AssertionError("a transform ran before the symbol check")

    monkeypatch.setattr(btlab.bargmann, "_gaussian_transform", no_transform)
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    wave = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    bad = CallableSymbol(n=1, func=lambda X: X[..., 0])
    X = complex_box(-1.0, 1.0, 1.0, 1)
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(ctx, [wave, wave, bad], [_gauss()], X)


def test_egorov_refuses_non_gaussian_probe_before_quadrature(monkeypatch):
    def no_transform(*args):
        raise AssertionError("a transform ran before the probe check")

    monkeypatch.setattr(btlab.bargmann, "_gaussian_transform", no_transform)
    ctx = build_context(fock_phase(1, 1.0), 1.0)
    wave = plane_wave_sum([(1.0, np.array([1.0]))], n=1)
    X = complex_box(-1.0, 1.0, 1.0, 1)
    with pytest.raises(UnsupportedSymbol):
        egorov_guillemin_check(ctx, [wave], [_gauss(), _gauss().__call__],
                               X)
