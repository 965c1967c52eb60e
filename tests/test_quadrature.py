import math

import numpy as np
import pytest

from btlab.errors import OrderOutOfRange
from btlab.quadrature import complex_grid, gauss_hermite_rule


def test_order_window():
    for bad in (0, 1, 257, 1000):
        with pytest.raises(OrderOutOfRange):
            gauss_hermite_rule(bad)
    r = gauss_hermite_rule(2)
    assert r.nodes.shape == (2,)
    assert r.weights.shape == (2,)


def test_even_moments_1d():
    """Moments of the scaled 1-D rule: int x^{2k} e^{-x^2/s^2} dx =
    s^{2k+1} Gamma(k + 1/2), and odd moments vanish."""
    rule = gauss_hermite_rule(20)
    sigma = 0.8
    x, w = sigma * rule.nodes, sigma * rule.weights
    for k in range(6):
        val = np.sum(w * x ** (2 * k))
        ref = sigma ** (2 * k + 1) * math.gamma(k + 0.5)
        assert abs(val - ref) < 1e-13 * ref
    rule = gauss_hermite_rule(15)
    x, w = 1.3 * rule.nodes, 1.3 * rule.weights
    assert abs(np.sum(w * (x ** 3 + 2.0 * x))) < 1e-14


def test_product_moments_2d():
    # C = R^2 through W = x + i y
    rule = gauss_hermite_rule(12)
    sigma = 1.1
    W, wt = complex_grid(rule, 1, sigma)
    val = np.sum(wt * W[0].real ** 2 * W[0].imag ** 4)
    ref = (sigma ** 3 * math.gamma(1.5)) * (sigma ** 5 * math.gamma(2.5))
    assert abs(val - ref) < 1e-13 * ref


def test_complex_grid_holomorphic_moments():
    """Monomial pairings against the absorbed Gaussian: the grid must
    reproduce int W^a conj(W)^b e^{-|W|^2/s^2} L(dW) = delta_ab pi s^{2a+2} a!."""
    rule = gauss_hermite_rule(24)
    sigma = 0.9
    W, wt = complex_grid(rule, 1, sigma)
    for a in range(4):
        for b in range(4):
            val = np.sum(wt * W[0] ** a * np.conj(W[0]) ** b)
            ref = 0.0
            if a == b:
                ref = np.pi * sigma ** (2 * a + 2) * math.factorial(a)
            assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_complex_grid_mass_2d():
    rule = gauss_hermite_rule(10)
    sigma = 0.7
    W, wt = complex_grid(rule, 2, sigma)
    assert W.shape == (2, rule.order ** 4)
    assert abs(np.sum(wt) - (np.pi * sigma ** 2) ** 2) < 1e-13


def test_grid_determinism():
    a = complex_grid(gauss_hermite_rule(17), 1, 0.5)
    b = complex_grid(gauss_hermite_rule(17), 1, 0.5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
